#include <gtest/gtest.h>

#include "common/error.hpp"
#include "perfmodel/hopper_model.hpp"

namespace dooc::perfmodel {
namespace {

TEST(Triangular, GridSizeRoundTrips) {
  EXPECT_EQ(triangular_grid_d(276), 23);    // the paper's processor counts
  EXPECT_EQ(triangular_grid_d(1128), 47);
  EXPECT_EQ(triangular_grid_d(4560), 95);
  EXPECT_EQ(triangular_grid_d(18336), 191);
  EXPECT_THROW((void)triangular_grid_d(100), dooc::InvalidArgument);
}

TEST(Triangular, NextTriangularCovers) {
  EXPECT_EQ(next_triangular(1), 1);
  EXPECT_EQ(next_triangular(2), 3);
  EXPECT_EQ(next_triangular(276), 276);
  EXPECT_EQ(next_triangular(277), 300);
}

TEST(HopperModel, CalibrationReproducesTable2Times) {
  const auto model = HopperModel::calibrated();
  for (const auto& c : hopper_reference()) {
    const auto p = model.predict(c.dimension, c.nnz, c.np);
    // Total 99-iteration times within 25% of the measurements.
    EXPECT_NEAR(p.t_iter() * 99.0, c.t_total_99, 0.25 * c.t_total_99) << c.name;
    // Communication fractions within 10 percentage points.
    EXPECT_NEAR(p.comm_fraction(), c.comm_fraction, 0.10) << c.name;
  }
}

TEST(HopperModel, CommFractionGrowsWithScale) {
  const auto model = HopperModel::calibrated();
  double prev = 0.0;
  for (const auto& c : hopper_reference()) {
    const auto p = model.predict(c.dimension, c.nnz, c.np);
    EXPECT_GT(p.comm_fraction(), prev) << c.name;
    prev = p.comm_fraction();
  }
  // The paper's headline: at 18336 cores communication dominates (~86%).
  const auto& big = hopper_reference().back();
  EXPECT_GT(model.predict(big.dimension, big.nnz, big.np).comm_fraction(), 0.75);
}

TEST(HopperModel, CpuHoursMatchTable2) {
  const auto model = HopperModel::calibrated();
  const double expected[] = {0.19, 1.72, 9.70, 96.2};  // Table II row 3
  int i = 0;
  for (const auto& c : hopper_reference()) {
    const auto p = model.predict(c.dimension, c.nnz, c.np);
    EXPECT_NEAR(p.cpu_hours_per_iter(c.np), expected[i], 0.3 * expected[i]) << c.name;
    ++i;
  }
}

TEST(HopperModel, LocalSizesMatchTable1) {
  // avg size of v_local: 8.8 / 13.6 / 20.4 / 27.2 MB.
  EXPECT_NEAR(HopperModel::local_vector_bytes(4.66e7, 276) / 1e6, 8.8, 1.0);
  EXPECT_NEAR(HopperModel::local_vector_bytes(1.60e8, 1128) / 1e6, 13.6, 0.5);
  EXPECT_NEAR(HopperModel::local_vector_bytes(4.82e8, 4560) / 1e6, 20.4, 0.5);
  EXPECT_NEAR(HopperModel::local_vector_bytes(1.30e9, 18336) / 1e6, 27.2, 0.5);
  // avg size of H_local: 880 / 880 / 800 / 750 MB.
  EXPECT_NEAR(HopperModel::local_matrix_bytes(2.81e10, 276) / 1e6, 880, 150);
  EXPECT_NEAR(HopperModel::local_matrix_bytes(1.51e12, 18336) / 1e6, 750, 150);
}

TEST(HopperModel, MinProcessorsTracksTable1) {
  // n_p within ~25% of the paper's choices (they rounded to their grid).
  EXPECT_NEAR(HopperModel::min_processors(2.81e10), 276, 0.25 * 276);
  EXPECT_NEAR(HopperModel::min_processors(1.24e11), 1128, 0.25 * 1128);
  EXPECT_NEAR(HopperModel::min_processors(4.62e11), 4560, 0.25 * 4560);
  EXPECT_NEAR(HopperModel::min_processors(1.51e12), 18336, 0.25 * 18336);
  // And is always triangular.
  EXPECT_NO_THROW((void)triangular_grid_d(HopperModel::min_processors(5e11)));
}

TEST(HopperModel, CoefficientsAreNonNegative) {
  const auto model = HopperModel::calibrated();
  EXPECT_GE(model.c_nnz(), 0.0);
  EXPECT_GE(model.c_row(), 0.0);
  EXPECT_GE(model.c_vol(), 0.0);
  EXPECT_GE(model.c_sync(), 0.0);
}

}  // namespace
}  // namespace dooc::perfmodel
