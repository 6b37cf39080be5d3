// Micro-benchmarks (google-benchmark): throughput of the hot substrate
// paths — engine round dispatch, diffusion updates (double vs exact
// dyadic), lazy-walk distribution steps, bigint arithmetic, graph
// generation, and spectral estimation. These calibrate how large the
// experiment sweeps can afford to be; they make no paper claims.
#include <benchmark/benchmark.h>

#include <iterator>
#include <vector>

#include "core/diffusion.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "sim/engine.h"
#include "util/bigint.h"
#include "util/dyadic.h"
#include "util/rng.h"

namespace anole {
namespace {

void bm_rng_below(benchmark::State& state) {
    xoshiro256ss rng(1);
    std::uint64_t acc = 0;
    for (auto _ : state) {
        acc += rng.below(1000);
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(bm_rng_below);

void bm_bigint_add(benchmark::State& state) {
    const auto limbs = static_cast<std::size_t>(state.range(0));
    xoshiro256ss rng(2);
    bigint a, b;
    for (std::size_t i = 0; i < limbs; ++i) {
        a <<= 64;
        a += bigint(rng());
        b <<= 64;
        b += bigint(rng());
    }
    for (auto _ : state) {
        bigint c = a;
        c += b;
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(bm_bigint_add)->Arg(2)->Arg(16)->Arg(128);

// One exact update of `pot` from `in`, as a diffusing node applies it.
dyadic diffuse_exact_once(dyadic pot, const std::vector<dyadic>& in) {
    diffuse_exact upd(pot, in.size(), 64, 6);
    for (const dyadic& v : in) upd.add(v);
    upd.finish();
    return pot;
}

void bm_dyadic_diffuse_exact(benchmark::State& state) {
    const auto rounds_grown = static_cast<std::size_t>(state.range(0));
    // Pre-grow a mantissa to simulate a potential after `rounds_grown`
    // diffusion rounds at D = 2^6.
    dyadic pot = dyadic::one();
    std::vector<dyadic> in(4, dyadic(bigint(1), 1));
    for (std::size_t i = 0; i < rounds_grown; ++i) {
        pot = diffuse_exact_once(pot, in);
        for (auto& v : in) v = pot;
    }
    for (auto _ : state) {
        dyadic next = diffuse_exact_once(pot, in);
        benchmark::DoNotOptimize(next);
    }
}
BENCHMARK(bm_dyadic_diffuse_exact)->Arg(4)->Arg(32)->Arg(128);

void bm_diffuse_approx(benchmark::State& state) {
    const double in[] = {0.25, 0.5, 0.125, 0.0625};
    double pot = 1.0;
    for (auto _ : state) {
        diffuse_approx upd(pot, std::size(in), 64);
        for (const double v : in) upd.add(v);
        upd.finish();
        benchmark::DoNotOptimize(pot);
    }
}
BENCHMARK(bm_diffuse_approx);

void bm_walk_distribution_step(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    graph g = make_random_regular(n, 4, 1);
    std::vector<double> pi(n, 0.0);
    pi[0] = 1.0;
    for (auto _ : state) {
        pi = walk_distribution_step(g, pi);
        benchmark::DoNotOptimize(pi.data());
    }
}
BENCHMARK(bm_walk_distribution_step)->Arg(256)->Arg(1024)->Arg(4096);

struct noop_msg {
    std::uint8_t x = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept { return 1; }
};
class noop_proc {
public:
    using message_type = noop_msg;
    explicit noop_proc(std::size_t degree) : degree_(degree) {}
    void on_round(node_ctx<noop_msg>& ctx, inbox_view<noop_msg>) {
        // one message per port: the engine's delivery-dominated regime
        for (port_id p = 0; p < degree_; ++p) ctx.send(p, noop_msg{});
    }

private:
    std::size_t degree_;
};

void bm_engine_round(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    graph g = make_random_regular(n, 4, 1);
    engine<noop_proc> eng(g, 1);
    eng.spawn([&](std::size_t u) { return noop_proc(g.degree(u)); });
    for (auto _ : state) {
        eng.step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * g.num_edges()));
}
BENCHMARK(bm_engine_round)->Arg(256)->Arg(1024)->Arg(4096);

void bm_graph_gen_random_regular(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    std::uint64_t seed = 0;
    for (auto _ : state) {
        graph g = make_random_regular(n, 4, ++seed);
        benchmark::DoNotOptimize(g.num_edges());
    }
}
BENCHMARK(bm_graph_gen_random_regular)->Arg(256)->Arg(1024);

void bm_lambda2(benchmark::State& state) {
    graph g = make_random_regular(static_cast<std::size_t>(state.range(0)), 4, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(lambda2_lazy(g, 256));
    }
}
BENCHMARK(bm_lambda2)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace anole

BENCHMARK_MAIN();
