// Writes seeded Gaussian rows to an fvecs file, the new rows the algas_cli
// ctest chain streams in with `algas_cli insert`:
//
//   cli_rows <out.fvecs> <dim> <rows>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dataset/io.hpp"

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: cli_rows <out.fvecs> <dim> <rows>\n");
    return 2;
  }
  const std::size_t dim = std::stoul(argv[2]);
  std::vector<float> rows(dim * std::stoul(argv[3]));
  algas::Rng rng(7);
  for (float& x : rows) x = rng.next_gaussian();
  algas::write_fvecs(argv[1], rows, dim);
  return 0;
}
