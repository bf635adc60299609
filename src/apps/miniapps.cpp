#include "src/apps/miniapps.hpp"

#include <array>
#include <vector>

#include "src/apps/topology.hpp"

namespace pd::apps {

namespace {

constexpr int kP2pBase = 1000;

int dir_index(int dim, int dir) { return dim * 2 + (dir > 0 ? 1 : 0); }

int step_tag(int step, int dim, int dir) {
  return kP2pBase + step * 8 + dir_index(dim, dir);
}

int rank_neighbor(mpirt::Rank& rank, int dim, int dir) {
  static int cached_p = -1;
  static std::array<int, 3> cached_dims;
  const int p = rank.world().size();
  if (p != cached_p) {
    cached_dims = cart_dims(p);
    cached_p = p;
  }
  return cart_neighbor(cached_dims, rank.id(), dim, dir);
}

}  // namespace

sim::Task<> stencil_rank(mpirt::Rank& rank, StencilParams params) {
  co_await rank.init();
  co_await rank.cart_create();

  rank.solve_begin();
  int halo_step = 0;
  for (int step = 0; step < params.timesteps; ++step) {
    // CG pressure solve: this loop is where OS noise amplifies. The halo
    // exchange only couples neighbours, but the two dot products couple
    // *every* rank, twice per iteration — any one delayed core stalls the
    // whole communicator for the rest of the solve.
    for (int iter = 0; iter < params.cg_iterations; ++iter) {
      co_await rank.compute(params.compute_per_iter);

      std::vector<mpirt::MpiReq> reqs;
      for (int dim = 0; dim < 3; ++dim) {
        for (int dir : {-1, +1}) {
          const int nb = rank_neighbor(rank, dim, dir);
          if (nb < 0) continue;
          reqs.push_back(
              rank.irecv(nb, step_tag(halo_step, dim, -dir), params.halo_bytes));
        }
      }
      for (int dim = 0; dim < 3; ++dim) {
        for (int dir : {-1, +1}) {
          const int nb = rank_neighbor(rank, dim, dir);
          if (nb < 0) continue;
          reqs.push_back(
              rank.isend(nb, step_tag(halo_step, dim, dir), params.halo_bytes));
        }
      }
      co_await rank.waitall(std::move(reqs));
      ++halo_step;

      // alpha = r·r / p·Ap, then the residual update's norm.
      co_await rank.allreduce(params.dot_bytes);
      co_await rank.allreduce(params.dot_bytes);
    }

    // End-of-solve residual restriction: one large vector allreduce —
    // crosses the recursive-doubling/ring crossover at scale.
    co_await rank.allreduce(params.residual_bytes);
  }
  rank.solve_end();
  co_await rank.finalize();
}

sim::Task<> fft_rank(mpirt::Rank& rank, FftParams params) {
  co_await rank.init();
  co_await rank.cart_create();

  const int p = rank.world().size();
  // Pencil → slab transpose: the local grid volume is scattered across all
  // ranks, 1/P of it to each peer.
  const std::uint64_t pair_bytes =
      std::max<std::uint64_t>(1, params.grid_bytes_per_rank /
                                     static_cast<std::uint64_t>(p));

  rank.solve_begin();
  for (int step = 0; step < params.steps; ++step) {
    // Forward: transpose, batch of 1-D FFTs, transpose back. Each
    // transpose is a full alltoall — the densest dependency a collective
    // can impose, and the pattern HACC's SWFFT spends its time in.
    co_await rank.alltoall(pair_bytes);
    co_await rank.compute(params.compute_per_stage);
    co_await rank.alltoall(pair_bytes);

    // Convolution in k-space.
    co_await rank.compute(params.compute_per_stage);

    // Backward pair.
    co_await rank.alltoall(pair_bytes);
    co_await rank.compute(params.compute_per_stage);
    co_await rank.alltoall(pair_bytes);

    // Power-spectrum normalization check.
    co_await rank.allreduce(params.norm_bytes);
  }
  rank.solve_end();
  co_await rank.finalize();
}

}  // namespace pd::apps
