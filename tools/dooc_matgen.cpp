// Matrix generator CLI: produce test matrices in binary-CSR (the
// middleware's on-disk format) or Matrix Market form.
//
//   dooc_matgen --kind=uniform-gap --rows=10000 --cols=10000 --nnz=200000
//               --out=A.bin [--format=csr|sell|mtx] [--seed=42]
//   dooc_matgen --kind=power-law --rows=10000 --nnz=500000 --alpha=1.5 ...
//   dooc_matgen --kind=laplacian --rows=4096 --out=L.mtx --format=mtx
//   dooc_matgen --kind=banded --rows=1000 --bandwidth=4 --diagonal=8 ...
//   dooc_matgen --kind=ci --protons=2 --neutrons=2 --nmax=2 --two-mj=0 ...
#include <cstdio>
#include <fstream>

#include "ci/hamiltonian.hpp"
#include "common/options.hpp"
#include "common/stats.hpp"
#include "spmv/generator.hpp"
#include "spmv/matrix_market.hpp"
#include "spmv/sell.hpp"

using namespace dooc;

int main(int argc, char** argv) {
  const Options opts = Options::from_args(argc, argv);
  const std::string kind = opts.get("kind", "uniform-gap");
  const std::string out_path = opts.get("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "usage: dooc_matgen --kind=uniform-gap|power-law|banded|laplacian|ci --out=FILE\n"
                 "       [--rows=N --cols=N --nnz=NNZ --seed=S] [--format=csr|sell|mtx]\n"
                 "       [--alpha=A] [--bandwidth=B --diagonal=D]\n"
                 "       [--protons= --neutrons= --nmax= --two-mj=]\n");
    return 2;
  }
  const auto rows = static_cast<std::uint64_t>(opts.get_int("rows", 1000));
  const auto cols = static_cast<std::uint64_t>(opts.get_int("cols", static_cast<std::int64_t>(rows)));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));

  spmv::CsrMatrix m;
  if (kind == "uniform-gap") {
    const auto nnz = static_cast<std::uint64_t>(opts.get_int("nnz", static_cast<std::int64_t>(rows * 16)));
    const double d = spmv::choose_gap_parameter(rows, cols, nnz);
    m = spmv::generate_uniform_gap(rows, cols, d, seed);
  } else if (kind == "power-law") {
    const auto nnz = static_cast<std::uint64_t>(opts.get_int("nnz", static_cast<std::int64_t>(rows * 16)));
    const double mean_row_nnz = static_cast<double>(nnz) / static_cast<double>(rows);
    m = spmv::generate_power_law(rows, cols, mean_row_nnz, opts.get_double("alpha", 1.5), seed);
  } else if (kind == "banded") {
    m = spmv::generate_banded(rows, static_cast<std::uint64_t>(opts.get_int("bandwidth", 3)),
                              opts.get_double("diagonal", 8.0));
  } else if (kind == "laplacian") {
    m = spmv::generate_laplacian_1d(rows);
  } else if (kind == "ci") {
    ci::NucleusConfig c;
    c.protons = static_cast<int>(opts.get_int("protons", 2));
    c.neutrons = static_cast<int>(opts.get_int("neutrons", 2));
    c.nmax = static_cast<int>(opts.get_int("nmax", 2));
    c.two_mj = static_cast<int>(opts.get_int("two-mj", 0));
    m = ci::build_hamiltonian(c);
  } else {
    std::fprintf(stderr, "unknown --kind '%s'\n", kind.c_str());
    return 2;
  }

  const std::string format =
      opts.get("format", out_path.size() > 4 && out_path.substr(out_path.size() - 4) == ".mtx"
                             ? "mtx"
                             : "csr");
  if (format == "mtx") {
    spmv::write_matrix_market_file(out_path, m);
  } else {
    std::vector<std::byte> bytes;
    if (format == "sell") {
      spmv::serialize_sell(spmv::build_sell(m, 8, 256), bytes);
    } else {
      spmv::serialize_csr(m, bytes);
    }
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::fprintf(stderr, "write failed: %s\n", out_path.c_str());
      return 1;
    }
  }
  std::printf("%s: %llu x %llu, %llu non-zeros (%s as %s)\n", out_path.c_str(),
              static_cast<unsigned long long>(m.rows), static_cast<unsigned long long>(m.cols),
              static_cast<unsigned long long>(m.nnz()),
              format_bytes(static_cast<double>(m.serialized_bytes())).c_str(), format.c_str());
  return 0;
}
