// Tests for core/revocable.h: Theorem 3 / Corollary 1's protocol.
// Faithful parameters at tiny n; scaled policy for breadth.
#include "core/revocable.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/properties.h"
#include "sim/dynamics.h"

namespace anole {
namespace {

TEST(Revocable, FaithfulBlindOnTinyCycle) {
    graph g = make_cycle(4);
    auto p = revocable_params::paper_faithful();
    p.exact_potentials = false;
    const auto r = run_revocable(g, p, 42, 60'000'000);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.num_leaders, 1u);
    EXPECT_EQ(r.nodes_chose, 4u);
    EXPECT_GT(r.congest_rounds, r.rounds);  // bit-by-bit charging is real
}

TEST(Revocable, FaithfulKnownIsoperimetricOnComplete) {
    graph g = make_complete(6);
    auto p = revocable_params::paper_faithful(isoperimetric_exact(g));
    p.exact_potentials = false;
    const auto r = run_revocable(g, p, 7, 60'000'000);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.nodes_chose, 6u);
    // Degree alarm: nobody can choose while k^{1+ε} < degree+? = 5.
    for (const auto& [k, tr] : r.traces) {
        if (k * k < 5) {
            EXPECT_FALSE(tr.chose_here) << k;
        }
    }
}

TEST(Revocable, KnownIsoperimetricIsCheaperThanBlind) {
    graph g = make_cycle(4);
    auto blind = revocable_params::paper_faithful();
    blind.exact_potentials = false;
    auto informed = revocable_params::paper_faithful(isoperimetric_exact(g));
    informed.exact_potentials = false;
    const auto rb = run_revocable(g, blind, 3, 60'000'000);
    const auto ri = run_revocable(g, informed, 3, 60'000'000);
    ASSERT_TRUE(rb.success);
    ASSERT_TRUE(ri.success);
    // Theorem 3 vs Corollary 1: knowing i(G) divides the diffusion length.
    EXPECT_LT(ri.rounds, rb.rounds);
    EXPECT_LT(ri.totals.messages, rb.totals.messages);
}

TEST(Revocable, ExactPotentialsConservedThroughFullProtocol) {
    // Scaled (short diffusion) so exact mantissas stay small; the point is
    // that the protocol runs end-to-end on exact arithmetic.
    graph g = make_cycle(4);
    auto p = revocable_params::scaled(isoperimetric_exact(g), 0.001, 0.05);
    p.exact_potentials = true;
    p.r_floor = 8;
    p.f_floor = 6;
    const auto r = run_revocable(g, p, 5, 5'000'000);
    EXPECT_EQ(r.nodes_chose, 4u);
    EXPECT_GE(r.num_leaders, 1u);
}

struct scaled_case {
    graph_family family;
    std::size_t n;
};

class RevocableScaled : public ::testing::TestWithParam<scaled_case> {};

TEST_P(RevocableScaled, ElectsStableUniqueLeader) {
    const auto [fam, n] = GetParam();
    graph g = make_family(fam, n, 5);
    double iso = g.num_nodes() <= 20 ? isoperimetric_exact(g) : 0.0;
    auto p = revocable_params::scaled(
        iso > 0 ? std::optional<double>(iso) : std::nullopt, 0.02, 0.12);
    int successes = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto r = run_revocable(g, p, seed, 30'000'000);
        if (r.success) ++successes;
        EXPECT_LE(r.num_leaders, 2u) << to_string(fam);
    }
    EXPECT_GE(successes, 2) << to_string(fam);
}

INSTANTIATE_TEST_SUITE_P(
    Families, RevocableScaled,
    ::testing::Values(scaled_case{graph_family::cycle, 8},
                      scaled_case{graph_family::path, 8},
                      scaled_case{graph_family::complete, 8},
                      scaled_case{graph_family::torus, 16},
                      scaled_case{graph_family::star, 8},
                      scaled_case{graph_family::binary_tree, 9},
                      scaled_case{graph_family::random_regular, 16}),
    [](const auto& info) {
        return std::string(to_string(info.param.family)) + "_" +
               std::to_string(info.param.n);
    });

TEST(Revocable, LeaderHasMaxCertificateMinId) {
    graph g = make_torus(4, 4);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    const auto r = run_revocable(g, p, 21, 30'000'000);
    ASSERT_TRUE(r.success);
    // Verify the dominance rule globally: the elected pair dominates every
    // chosen pair.
    EXPECT_GT(r.leader_certificate, 0u);
    EXPECT_GT(r.leader_id, 0u);
}

TEST(Revocable, RevocationsHappenThenQuiesce) {
    // Multiple nodes choose IDs at the same estimate; early wrong views
    // must be revoked; success implies quiescence afterwards.
    graph g = make_torus(4, 4);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    const auto r = run_revocable(g, p, 31, 30'000'000);
    ASSERT_TRUE(r.success);
    EXPECT_GT(r.total_revocations, 0u);
    EXPECT_LE(r.stable_round, r.rounds);
}

TEST(Revocable, TracesShowLowEstimatesRejected) {
    graph g = make_cycle(4);
    auto p = revocable_params::paper_faithful();
    p.exact_potentials = false;
    const auto r = run_revocable(g, p, 42, 60'000'000);
    ASSERT_TRUE(r.success);
    // Lemma 8-style sanity: every estimate that was fully certified by
    // some node has a trace; iterations count matches f(k) per node.
    for (const auto& [k, tr] : r.traces) {
        EXPECT_GT(tr.iterations, 0u) << k;
        EXPECT_LE(tr.empty_iterations, tr.iterations) << k;
        EXPECT_LE(tr.probing_iterations, tr.iterations) << k;
    }
}

TEST(Revocable, DeterministicInSeed) {
    graph g = make_cycle(8);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    const auto a = run_revocable(g, p, 9, 30'000'000);
    const auto b = run_revocable(g, p, 9, 30'000'000);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.leader_id, b.leader_id);
    EXPECT_EQ(a.totals.messages, b.totals.messages);
}

TEST(Revocable, PortPermutationInvariance) {
    graph g = make_torus(4, 4).with_permuted_ports(55);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    int successes = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        successes += run_revocable(g, p, seed, 30'000'000).success ? 1 : 0;
    }
    EXPECT_GE(successes, 2);
}

TEST(Revocable, KCapStopsEarly) {
    graph g = make_cycle(8);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    p.k_cap = 2;  // give up before anyone can choose
    const auto r = run_revocable(g, p, 3, 30'000'000);
    EXPECT_FALSE(r.success);
    EXPECT_LE(r.final_estimate, 4u);
}

TEST(Revocable, MessageComplexityIsRoundsTimesEdges) {
    // Every node broadcasts every round: messages ≈ 2m · rounds.
    graph g = make_cycle(6);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    const auto r = run_revocable(g, p, 13, 30'000'000);
    ASSERT_TRUE(r.success);
    const double per_round = static_cast<double>(r.totals.messages) /
                             static_cast<double>(r.rounds);
    EXPECT_NEAR(per_round, 2.0 * static_cast<double>(g.num_edges()), 2.0);
}

// --- golden pins --------------------------------------------------------------
//
// Bitwise regression pins: rounds, messages, bits, charged CONGEST rounds,
// the elected ID and the revocation count of fixed (graph, seed) cells,
// recorded before the engine gained its broadcast payload (send_all) and
// the single-pass exchange. Covers both potential modes, the campaign's
// default policy, and dynamics with port re-wiring. A change in any value
// is a behaviour change, not noise: these runs are deterministic.

struct golden_cell {
    const char* name;
    graph g;
    revocable_params params;
    std::uint64_t seed;
    std::uint64_t max_rounds;
    const char* dynamics;  // preset name
    std::uint64_t rounds, messages, bits, congest_rounds, leader_id, revocations;
};

revocable_params exact_scaled(std::optional<double> iso) {
    auto p = revocable_params::scaled(iso, 0.001, 0.05);
    p.exact_potentials = true;
    return p;
}

revocable_params campaign_policy() {
    auto p = revocable_params::scaled(std::nullopt, 0.008, 0.05);
    p.k_cap = 16;
    return p;
}

TEST(Revocable, GoldenPins) {
    auto faithful = revocable_params::paper_faithful();
    faithful.exact_potentials = false;
    const graph cycle4 = make_cycle(4);
    const graph ba16 = make_family(graph_family::barabasi_albert, 16, 1);
    const graph torus16 = make_family(graph_family::torus, 16, 1);
    const std::vector<golden_cell> cells = {
        {"approx_faithful_cycle4", cycle4, faithful, 42, 60'000'000, "static", 68165,
         545320, 11143526236ull, 43562580, 1570, 4},
        {"exact_cycle4", cycle4, exact_scaled(isoperimetric_exact(cycle4)), 5, 5'000'000,
         "static", 1508, 12064, 675620, 3679, 3689822, 4},
        {"exact_blind_ba12", make_family(graph_family::barabasi_albert, 12, 1),
         exact_scaled(std::nullopt), 3, 5'000'000, "static", 1969, 82698, 4096071, 2129,
         23283, 29},
        {"campaign_ba16_s1", ba16, campaign_policy(), 1, 2'000'000, "static", 6262, 363196,
         1726963338ull, 468424, 1818714, 36},
        {"campaign_ba16_s2", ba16, campaign_policy(), 2, 2'000'000, "static", 6262, 363196,
         1726643636ull, 468338, 915405, 34},
        {"campaign_torus16_rewire", torus16, campaign_policy(), 3, 2'000'000, "rewire",
         6263, 400832, 1904736680ull, 468211, 23283, 39},
        {"campaign_torus16_storm", torus16, campaign_policy(), 3, 30'000, "storm", 30000,
         1882144, 150520796048ull, 37679117, 0, 0},
        {"exact_blind_cycle6_rewire", make_cycle(6), exact_scaled(std::nullopt), 4,
         5'000'000, "rewire", 1969, 23628, 1399520, 3522, 2653671, 7},
    };
    for (const golden_cell& c : cells) {
        const auto r = run_revocable(c.g, c.params, c.seed, c.max_rounds,
                                     congest_budget::fragmenting(16),
                                     *dynamics_preset(c.dynamics));
        EXPECT_EQ(r.rounds, c.rounds) << c.name;
        EXPECT_EQ(r.totals.messages, c.messages) << c.name;
        EXPECT_EQ(r.totals.bits, c.bits) << c.name;
        EXPECT_EQ(r.congest_rounds, c.congest_rounds) << c.name;
        EXPECT_EQ(r.leader_id, c.leader_id) << c.name;
        EXPECT_EQ(r.total_revocations, c.revocations) << c.name;
        EXPECT_TRUE(r.oracle.pass()) << c.name;
    }
}

}  // namespace
}  // namespace anole
