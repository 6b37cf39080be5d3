// Differential tests for irrevocable election's active-set rounds: nodes
// that sleep through rounds via the engine's wake hint must produce
// exactly the run of nodes stepped every round. always_awake<P> forwards
// on_round and then clears the hint, which restores the every-round
// schedule without a second code path in the protocol. The fingerprint
// covers every node's election and execution-tree state, per-phase costs,
// the realized dynamics schedule and the oracle verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/irrevocable.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "sim/dynamics.h"

namespace anole {
namespace {

// Test-only wrapper: P stepped in every round it is alive, whatever hints
// it sets.
template <class P>
class always_awake {
public:
    using message_type = typename P::message_type;

    explicit always_awake(P inner) : inner_(std::move(inner)) {}

    void on_round(node_ctx<message_type>& ctx, inbox_view<message_type> inbox) {
        inner_.on_round(ctx, inbox);
        ctx.sleep_until(0);
    }

    [[nodiscard]] const P& inner() const noexcept { return inner_; }

private:
    P inner_;
};

const irrevocable_node& inner(const irrevocable_node& n) { return n; }
const irrevocable_node& inner(const always_awake<irrevocable_node>& n) {
    return n.inner();
}

struct fingerprint {
    std::vector<std::uint64_t> nodes;  // flattened per-node state
    std::uint64_t rounds = 0;
    phase_counters broadcast, walk, convergecast, totals;
    dynamics_stats dynamics;
    std::string oracle;

    bool operator==(const fingerprint&) const = default;
};

void append_node(std::vector<std::uint64_t>& out, const irrevocable_node& nd) {
    out.insert(out.end(), {nd.id(), nd.id_max(), nd.is_candidate() ? 1u : 0u,
                           nd.is_leader() ? 1u : 0u, nd.decided() ? 1u : 0u,
                           nd.walk_tokens(), nd.slot_overflows(),
                           nd.executions().size()});
    for (const auto& [exec_id, e] : nd.executions()) {
        out.insert(out.end(),
                   {exec_id, e.in_tree() ? 1u : 0u, e.is_root() ? 1u : 0u,
                    static_cast<std::uint64_t>(e.status()), e.source_id(),
                    e.parent() ? *e.parent() + 1u : 0u, e.confirmed(),
                    e.report_threshold(), e.children().size()});
        out.insert(out.end(), e.children().begin(), e.children().end());
    }
}

// run_irrevocable's phase sequence over an arbitrary node type.
template <class Node>
fingerprint run_with(const graph& g, const irrevocable_params& params, std::uint64_t seed,
                     const dynamics_spec& dyn, std::uint64_t* node_steps = nullptr) {
    engine<Node> eng(g, seed, congest_budget::strict_log(16));
    if (dyn.enabled()) eng.set_dynamics(dyn, seed);
    eng.spawn([&](std::size_t u) {
        return Node(irrevocable_node(g.degree(static_cast<node_id>(u)), params));
    });
    const auto probe = [&eng](std::size_t u) {
        const irrevocable_node& nd = inner(eng.node(u));
        node_status st;
        st.decided = nd.decided();
        st.leader = nd.is_leader();
        st.own_id = nd.id();
        return st;
    };
    eng.set_status_probe(probe);
    eng.set_phase("broadcast");
    eng.run_rounds(params.bc_end());
    eng.set_phase("walk");
    eng.run_rounds(params.walk_end() - params.bc_end());
    eng.set_phase("convergecast");
    eng.run_rounds(params.total_rounds() - params.walk_end());
    eng.set_phase("decide");
    eng.run_rounds(1);

    fingerprint fp;
    for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
        fp.nodes.push_back((eng.node_present(u) ? 1u : 0u) | (eng.node_crashed(u) ? 2u : 0u));
        append_node(fp.nodes, inner(eng.node(u)));
    }
    fp.rounds = eng.round();
    fp.broadcast = eng.metrics().phase("broadcast");
    fp.walk = eng.metrics().phase("walk");
    fp.convergecast = eng.metrics().phase("convergecast");
    fp.totals = eng.metrics().total();
    if (eng.dynamics() != nullptr) fp.dynamics = eng.dynamics()->stats();
    fp.oracle = run_oracle(eng, probe, {.round_cap = params.total_rounds() + 1}).summary();
    if (node_steps != nullptr) *node_steps = eng.node_steps();
    return fp;
}

// Small fixed schedule parameters keep the grid fast; cand_c = 3 packs
// several executions into each super-round.
irrevocable_params grid_params(std::size_t n, bool throttle, double cand_c) {
    irrevocable_params p;
    p.n = n;
    p.tmix = 8;
    p.phi = 0.2;
    p.cand_c = cand_c;
    p.cautious_throttle = throttle;
    return p;
}

std::vector<std::pair<std::string, dynamics_spec>> grid_dynamics() {
    dynamics_spec mixed = *dynamics_preset("churn");  // churn + crash + join
    mixed.crash_prob = 0.0005;
    mixed.leave_prob = 0.002;
    mixed.join_prob = 0.05;
    return {{"static", *dynamics_preset("static")},
            {"loss", *dynamics_preset("loss")},
            {"sleep", *dynamics_preset("sleep")},
            {"rewire", *dynamics_preset("rewire")},
            {"churn+crash+join", mixed},
            {"frontier", *dynamics_preset("frontier")}};
}

void expect_identical(const graph& g, const irrevocable_params& p, std::uint64_t seed,
                      const dynamics_spec& dyn, const std::string& label,
                      std::uint64_t& sleeping_steps, std::uint64_t& awake_steps) {
    std::uint64_t s_sleep = 0;
    std::uint64_t s_awake = 0;
    const fingerprint sleeping = run_with<irrevocable_node>(g, p, seed, dyn, &s_sleep);
    const fingerprint awake =
        run_with<always_awake<irrevocable_node>>(g, p, seed, dyn, &s_awake);
    EXPECT_EQ(sleeping.rounds, awake.rounds) << label;
    EXPECT_EQ(sleeping.totals, awake.totals) << label;
    EXPECT_EQ(sleeping.oracle, awake.oracle) << label;
    EXPECT_TRUE(sleeping == awake) << label;
    EXPECT_LE(s_sleep, s_awake) << label;
    sleeping_steps += s_sleep;
    awake_steps += s_awake;
}

TEST(IrrevocableWake, SleepingMatchesAlwaysAwakeOnEveryFamilyAndPreset) {
    std::uint64_t sleeping_steps = 0;
    std::uint64_t awake_steps = 0;
    for (graph_family f : all_families()) {
        const graph g = make_family(f, 24, 5);
        for (const auto& [name, dyn] : grid_dynamics()) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                for (const bool throttle : {true, false}) {
                    const double cand_c = seed == 3 ? 3.0 : 1.0;
                    expect_identical(g, grid_params(g.num_nodes(), throttle, cand_c), seed,
                                     dyn,
                                     std::string(to_string(f)) + " " + name + " seed " +
                                         std::to_string(seed) +
                                         (throttle ? "" : " throttle-off"),
                                     sleeping_steps, awake_steps);
                }
            }
        }
    }
    // The hint must actually skip work, not just be harmless.
    EXPECT_LT(sleeping_steps * 2, awake_steps);
}

TEST(IrrevocableWake, SleepingMatchesAlwaysAwakeAtLargerN) {
    std::uint64_t sleeping_steps = 0;
    std::uint64_t awake_steps = 0;
    for (graph_family f : all_families()) {
        const graph g = make_family(f, 96, 2);
        for (const auto& [name, dyn] : grid_dynamics()) {
            expect_identical(g, grid_params(g.num_nodes(), true, 1.0), 4, dyn,
                             std::string(to_string(f)) + " n=96 " + name, sleeping_steps, awake_steps);
        }
    }
    EXPECT_LT(sleeping_steps * 4, awake_steps);
}

// run_with above repeats run_irrevocable's phase sequence: its sleeping
// run reports exactly what run_irrevocable reports.
TEST(IrrevocableWake, HarnessMatchesRunIrrevocable) {
    const graph g = make_family(graph_family::barabasi_albert, 64, 3);
    const irrevocable_params p = grid_params(g.num_nodes(), true, 1.0);
    for (const auto& [name, dyn] : grid_dynamics()) {
        std::uint64_t steps = 0;
        const fingerprint fp = run_with<irrevocable_node>(g, p, 7, dyn, &steps);
        const irrevocable_result r = run_irrevocable(g, p, 7, congest_budget::strict_log(16), dyn);
        EXPECT_EQ(fp.rounds, r.rounds) << name;
        EXPECT_EQ(fp.totals, r.totals) << name;
        EXPECT_EQ(fp.broadcast, r.phase_broadcast) << name;
        EXPECT_EQ(fp.walk, r.phase_walk) << name;
        EXPECT_EQ(fp.convergecast, r.phase_convergecast) << name;
        EXPECT_EQ(fp.oracle, r.oracle.summary()) << name;
        EXPECT_EQ(steps, r.node_steps) << name;
    }
}

// Deterministic work counter: on a scale-free graph with the profiled
// schedule, nodes sleep through the vast majority of rounds.
TEST(IrrevocableWake, NodeStepsAreAFractionOfRoundsTimesN) {
    const graph g = make_family(graph_family::barabasi_albert, 256, 1);
    const auto prof = profile(g, 1);
    irrevocable_params p;
    p.n = g.num_nodes();
    p.tmix = std::max<std::uint64_t>(prof.mixing_time, 1);
    p.phi = prof.conductance;
    const irrevocable_result r = run_irrevocable(g, p, 1);
    EXPECT_TRUE(r.oracle.pass()) << r.oracle.summary();
    EXPECT_GT(r.node_steps, 0u);
    EXPECT_LE(r.node_steps, r.rounds * g.num_nodes() / 10)
        << "node_steps " << r.node_steps << ", rounds " << r.rounds;
    // Same run, same count.
    EXPECT_EQ(run_irrevocable(g, p, 1).node_steps, r.node_steps);
}

// Deterministic work counters pinned at the full-scan engine, so the
// wake calendar visits a superset of the stepped nodes and never changes
// which ones step: profiled parameters, topology seed 1, run seeds 1/2.
TEST(IrrevocableSteps, NodeStepsPinnedOnScaleFree) {
    const std::pair<std::size_t, std::array<std::uint64_t, 2>> pins[] = {
        {1024, {214'788, 130'147}},
        {4096, {883'987, 683'902}},
    };
    for (const auto& [n, steps] : pins) {
        const graph g = make_family(graph_family::barabasi_albert, n, 1);
        const auto prof = profile(g, 1);
        irrevocable_params p;
        p.n = g.num_nodes();
        p.tmix = std::max<std::uint64_t>(prof.mixing_time, 1);
        p.phi = prof.conductance;
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            const irrevocable_result r = run_irrevocable(g, p, seed);
            EXPECT_EQ(r.node_steps, steps[seed - 1]) << "ba(" << n << ") seed " << seed;
            EXPECT_TRUE(r.oracle.pass()) << r.oracle.summary();
        }
    }
}

}  // namespace
}  // namespace anole
