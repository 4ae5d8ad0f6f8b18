// Seeded input generation. Every input is a pure function of the workload
// seed; the library only ever sees the generated matrices.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/csr.h"

namespace perfbench {

struct Job {
  std::string name;
  speck::Csr a;
  speck::Csr b;
  std::int64_t products = 0;  ///< intermediate products of a * b
};

/// The 11 Table-4 stand-ins of gen::common_corpus (same families and sizes)
/// with generator seeds and values drawn from `seed`. `tiny` shrinks every
/// matrix for the smoke self-test.
std::vector<Job> table4_corpus(std::uint64_t seed, bool tiny);

/// Copy of `m` with values drawn uniformly from [0.5, 1.5) (pattern kept).
speck::Csr with_values(const speck::Csr& m, std::uint64_t seed);

/// Triangle-counting inputs: strictly lower-triangular patterns (values 1)
/// of symmetrized R-MAT and power-law graphs. a = b = the lower triangle.
std::vector<Job> triangle_graphs(std::uint64_t seed, bool tiny);

/// `count` small serving-sized square patterns (the speckd shapes), cycling
/// over banded, power-law, 2D-stencil and block-diagonal families.
std::vector<speck::Csr> service_patterns(std::size_t count, std::uint64_t seed);

}  // namespace perfbench
