#include <gtest/gtest.h>

#include <set>

#include "ci/hamiltonian.hpp"
#include "ci/ho_basis.hpp"
#include "ci/mscheme.hpp"

namespace dooc::ci {
namespace {

TEST(HoBasis, ShellCountsMatchClosedForm) {
  // Shell N holds (N+1)(N+2) m-states per species.
  for (int shell = 0; shell <= 6; ++shell) {
    EXPECT_EQ(HoBasis::states_in_shell(shell), (shell + 1) * (shell + 2));
  }
  const HoBasis basis(4);
  EXPECT_EQ(static_cast<int>(basis.num_states()), HoBasis::states_up_to_shell(4));
}

TEST(HoBasis, StateQuantumNumbersAreConsistent) {
  const HoBasis basis(5);
  for (const auto& s : basis.states()) {
    EXPECT_EQ(s.quanta(), 2 * s.n + s.l);
    EXPECT_LE(s.quanta(), 5);
    EXPECT_LE(std::abs(s.twomj), s.twoj);
    EXPECT_EQ(std::abs(s.twomj) % 2, 1);  // half-integral m_j
    EXPECT_TRUE(s.twoj == 2 * s.l + 1 || s.twoj == std::abs(2 * s.l - 1));
  }
}

TEST(HoBasis, OrbitalLabels) {
  const HoBasis basis(2);
  // Lowest orbitals: 0s1/2, 0p3/2 (or 0p1/2 depending on order), ...
  EXPECT_EQ(basis.orbitals()[0].label(), "0s1/2");
}

TEST(MinimalQuanta, FillsLowestShells) {
  EXPECT_EQ(minimal_quanta(0), 0);
  EXPECT_EQ(minimal_quanta(2), 0);   // both in the s-shell
  EXPECT_EQ(minimal_quanta(3), 1);   // one forced into the p-shell
  EXPECT_EQ(minimal_quanta(5), 3);   // 2 + 3x1 quanta (10B per-species N0)
  EXPECT_EQ(minimal_quanta(8), 6);   // full p-shell occupancy
}

TEST(MScheme, CountingMatchesEnumerationAcrossConfigs) {
  // DP count vs explicit enumeration for a family of small systems.
  const NucleusConfig configs[] = {
      {1, 1, 2, 0}, {1, 1, 3, 2}, {2, 1, 2, 1}, {2, 2, 2, 0},
      {2, 2, 3, 2}, {3, 2, 1, 1}, {3, 3, 2, 0},
  };
  for (const auto& c : configs) {
    const auto d = basis_dimension(c);
    const auto dets = enumerate_basis(c);
    EXPECT_EQ(d, dets.size()) << "Z=" << c.protons << " N=" << c.neutrons
                              << " Nmax=" << c.nmax << " 2M=" << c.two_mj;
  }
}

TEST(MScheme, EnumeratedDeterminantsSatisfyAllConstraints) {
  const NucleusConfig c{2, 2, 2, 0};
  const HoBasis basis(c.max_shell());
  const int max_total = c.n0() + c.nmax;
  const int want_parity = (c.n0() + c.nmax) % 2;
  std::set<std::pair<std::vector<std::uint16_t>, std::vector<std::uint16_t>>> seen;
  for (const auto& det : enumerate_basis(c)) {
    EXPECT_EQ(static_cast<int>(det.proton_states.size()), 2);
    EXPECT_EQ(static_cast<int>(det.neutron_states.size()), 2);
    EXPECT_LE(determinant_quanta(basis, det), max_total);
    EXPECT_EQ(determinant_quanta(basis, det) % 2, want_parity);
    EXPECT_EQ(determinant_twom(basis, det), 0);
    // Pauli: strictly increasing state indices.
    for (std::size_t i = 1; i < det.proton_states.size(); ++i) {
      EXPECT_LT(det.proton_states[i - 1], det.proton_states[i]);
    }
    EXPECT_TRUE(seen.emplace(det.proton_states, det.neutron_states).second) << "duplicate";
  }
}

TEST(MScheme, DimensionGrowsExponentiallyWithNmax) {
  std::uint64_t prev = 0;
  for (int nmax = 0; nmax <= 6; nmax += 2) {
    const auto d = basis_dimension({3, 3, nmax, 0});
    EXPECT_GT(d, prev);
    if (prev > 0) {
      EXPECT_GT(d, 3 * prev);  // super-linear growth
    }
    prev = d;
  }
}

TEST(MScheme, PaperTable1DimensionsReproduced) {
  // Table I of the paper: 10B (Z=5, N=5) at (Nmax, Mj) — exact D via DP.
  EXPECT_NEAR(static_cast<double>(basis_dimension({5, 5, 7, 0})), 4.66e7, 0.01e7);
  EXPECT_NEAR(static_cast<double>(basis_dimension({5, 5, 8, 2})), 1.60e8, 0.01e8);
}

TEST(MScheme, EnumerationLimitEnforced) {
  EXPECT_THROW(enumerate_basis({5, 5, 7, 0}, 1000), InvalidArgument);
}

TEST(MScheme, HigherMjShrinksBasis) {
  const auto d0 = basis_dimension({3, 3, 2, 0});
  const auto d4 = basis_dimension({3, 3, 2, 8});
  EXPECT_GT(d0, d4);
}

TEST(Hamiltonian, MatrixIsSymmetricWithCorrectDimension) {
  const NucleusConfig c{2, 2, 2, 0};
  const auto h = build_hamiltonian(c);
  const auto d = basis_dimension(c);
  EXPECT_EQ(h.rows, d);
  EXPECT_EQ(h.cols, d);
  h.validate();

  // Symmetry of the pattern and values.
  auto at = [&](std::uint64_t i, std::uint64_t j) -> double {
    for (std::uint64_t k = h.row_ptr[i]; k < h.row_ptr[i + 1]; ++k) {
      if (h.col_idx[k] == j) return h.values[k];
    }
    return 0.0;
  };
  for (std::uint64_t i = 0; i < h.rows; i += 7) {
    for (std::uint64_t k = h.row_ptr[i]; k < h.row_ptr[i + 1]; ++k) {
      EXPECT_DOUBLE_EQ(at(h.col_idx[k], i), h.values[k]);
    }
  }
}

TEST(Hamiltonian, SparsityMatchesTwoBodySelectionRule) {
  // Every stored off-diagonal entry connects determinants differing in at
  // most two single-particle states.
  const NucleusConfig c{2, 1, 2, 1};
  const auto dets = enumerate_basis(c);
  const auto h = build_hamiltonian(c);
  auto differences = [](const Determinant& a, const Determinant& b) {
    int diff = 0;
    auto count = [&](const std::vector<std::uint16_t>& x, const std::vector<std::uint16_t>& y) {
      for (auto s : x) {
        if (std::find(y.begin(), y.end(), s) == y.end()) ++diff;
      }
    };
    count(a.proton_states, b.proton_states);
    count(a.neutron_states, b.neutron_states);
    return diff;
  };
  for (std::uint64_t i = 0; i < h.rows; ++i) {
    for (std::uint64_t k = h.row_ptr[i]; k < h.row_ptr[i + 1]; ++k) {
      const auto j = h.col_idx[k];
      EXPECT_LE(differences(dets[i], dets[j]), 2);
    }
  }
}

TEST(Hamiltonian, PatternStatsAgreeWithBuiltMatrix) {
  const NucleusConfig c{2, 2, 2, 0};
  const auto stats = hamiltonian_pattern_stats(c);
  const auto h = build_hamiltonian(c);
  EXPECT_EQ(stats.dimension, h.rows);
  EXPECT_EQ(stats.nnz, h.nnz());
  EXPECT_NEAR(stats.avg_row_nnz, static_cast<double>(h.nnz()) / h.rows, 1e-12);
}

TEST(Hamiltonian, PatternIsExhaustive) {
  // Brute-force cross-check: every pair differing by <= 2 states (with
  // matching symmetries there's no further selection in our model) must
  // appear in the pattern.
  const NucleusConfig c{1, 1, 2, 0};
  const auto dets = enumerate_basis(c);
  const auto h = build_hamiltonian(c);
  auto has_entry = [&](std::uint64_t i, std::uint64_t j) {
    for (std::uint64_t k = h.row_ptr[i]; k < h.row_ptr[i + 1]; ++k) {
      if (h.col_idx[k] == j) return true;
    }
    return false;
  };
  auto differences = [](const Determinant& a, const Determinant& b) {
    int diff = 0;
    auto count = [&](const std::vector<std::uint16_t>& x, const std::vector<std::uint16_t>& y) {
      for (auto s : x) {
        if (std::find(y.begin(), y.end(), s) == y.end()) ++diff;
      }
    };
    count(a.proton_states, b.proton_states);
    count(a.neutron_states, b.neutron_states);
    return diff;
  };
  for (std::uint64_t i = 0; i < dets.size(); ++i) {
    for (std::uint64_t j = 0; j < dets.size(); ++j) {
      if (differences(dets[i], dets[j]) <= 2) {
        EXPECT_TRUE(has_entry(i, j)) << i << "," << j;
      } else {
        EXPECT_FALSE(has_entry(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(Hamiltonian, ConnectivityEstimateTracksExactAverage) {
  const NucleusConfig c{2, 2, 2, 0};
  const auto exact = hamiltonian_pattern_stats(c);
  const auto est = estimate_connectivity(c, 300, 99);
  // The walk is biased toward high-connectivity rows; accept 35% error.
  EXPECT_NEAR(est.avg_row_nnz, exact.avg_row_nnz, 0.35 * exact.avg_row_nnz);
  EXPECT_GT(est.estimated_nnz, exact.nnz / 2);
  EXPECT_LT(est.estimated_nnz, exact.nnz * 2);
}

TEST(Hamiltonian, BuildIsDeterministic) {
  const NucleusConfig c{2, 1, 2, 1};
  const auto h1 = build_hamiltonian(c);
  const auto h2 = build_hamiltonian(c);
  EXPECT_EQ(h1.col_idx, h2.col_idx);
  EXPECT_EQ(h1.values, h2.values);
}

}  // namespace
}  // namespace dooc::ci
