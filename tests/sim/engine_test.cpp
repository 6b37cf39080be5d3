// Tests for sim/engine.h: synchronous delivery, CONGEST enforcement,
// metrics, determinism, halting, and anonymity under port permutation.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/generators.h"
#include "sim/dynamics.h"

namespace anole {
namespace {

struct test_msg {
    std::uint64_t value = 0;
    std::size_t bits = 8;
    [[nodiscard]] std::size_t bit_size() const noexcept { return bits; }
};

// Sends its running counter to every port each round; sums what it hears.
class chatter {
public:
    using message_type = test_msg;
    explicit chatter(std::size_t degree) : degree_(degree) {}

    void on_round(node_ctx<test_msg>& ctx, inbox_view<test_msg> inbox) {
        for (const auto& [port, msg] : inbox) {
            (void)port;
            received_ += msg.value;
            ++count_;
        }
        for (port_id p = 0; p < degree_; ++p) {
            ctx.send(p, test_msg{ctx.round() + 1, 8});
        }
    }

    std::uint64_t received_ = 0;
    std::uint64_t count_ = 0;

private:
    std::size_t degree_;
};

TEST(Engine, SynchronousDelivery) {
    graph g = make_cycle(4);
    engine<chatter> eng(g, 1);
    eng.spawn([&](std::size_t u) { return chatter(g.degree(u)); });
    eng.run_rounds(1);
    // Round 0 messages not yet processed by anyone.
    for (std::size_t u = 0; u < 4; ++u) EXPECT_EQ(eng.node(u).count_, 0u);
    eng.run_rounds(1);
    // Every node heard both neighbors' round-0 messages (value 1).
    for (std::size_t u = 0; u < 4; ++u) {
        EXPECT_EQ(eng.node(u).count_, 2u);
        EXPECT_EQ(eng.node(u).received_, 2u);
    }
}

TEST(Engine, MessageAndBitCounting) {
    graph g = make_cycle(4);
    engine<chatter> eng(g, 1);
    eng.spawn([&](std::size_t u) { return chatter(g.degree(u)); });
    eng.run_rounds(3);
    // 4 nodes * 2 ports * 3 rounds.
    EXPECT_EQ(eng.metrics().total().messages, 24u);
    EXPECT_EQ(eng.metrics().total().bits, 24u * 8);
    EXPECT_EQ(eng.metrics().total().rounds, 3u);
}

TEST(Engine, PhaseSplitCounting) {
    graph g = make_cycle(4);
    engine<chatter> eng(g, 1);
    eng.spawn([&](std::size_t u) { return chatter(g.degree(u)); });
    eng.set_phase("a");
    eng.run_rounds(2);
    eng.set_phase("b");
    eng.run_rounds(3);
    EXPECT_EQ(eng.metrics().phase("a").rounds, 2u);
    EXPECT_EQ(eng.metrics().phase("b").rounds, 3u);
    EXPECT_EQ(eng.metrics().phase("a").messages, 16u);
    EXPECT_EQ(eng.metrics().phase("b").messages, 24u);
    EXPECT_EQ(eng.metrics().phase("nope").messages, 0u);
}

// Sends two messages into the same port: must throw.
class double_sender {
public:
    using message_type = test_msg;
    explicit double_sender(std::size_t) {}
    void on_round(node_ctx<test_msg>& ctx, inbox_view<test_msg>) {
        ctx.send(0, test_msg{});
        ctx.send(0, test_msg{});
    }
};

TEST(Engine, DoubleSendThrows) {
    if (!congest_guard_checks) {
        GTEST_SKIP() << "CONGEST guards compiled out in Release";
    }
    graph g = make_cycle(3);
    engine<double_sender> eng(g, 1);
    eng.spawn([](std::size_t) { return double_sender(0); });
    EXPECT_THROW(eng.run_rounds(1), error);
}

// Broadcasts twice, or sends on a port and then broadcasts, in one round:
// both break the one-message-per-port rule and must throw.
class double_broadcaster {
public:
    using message_type = test_msg;
    explicit double_broadcaster(bool send_first) : send_first_(send_first) {}
    void on_round(node_ctx<test_msg>& ctx, inbox_view<test_msg>) {
        if (send_first_) {
            ctx.send(0, test_msg{});
        } else {
            ctx.send_all(test_msg{});
        }
        ctx.send_all(test_msg{});
    }

private:
    bool send_first_;
};

TEST(Engine, DoubleBroadcastThrows) {
    if (!congest_guard_checks) {
        GTEST_SKIP() << "CONGEST guards compiled out in Release";
    }
    graph g = make_cycle(3);
    for (const bool send_first : {false, true}) {
        engine<double_broadcaster> eng(g, 1);
        eng.spawn([&](std::size_t) { return double_broadcaster(send_first); });
        EXPECT_THROW(eng.run_rounds(1), error) << "send_first=" << send_first;
    }
}

class port_overflow {
public:
    using message_type = test_msg;
    explicit port_overflow(std::size_t) {}
    void on_round(node_ctx<test_msg>& ctx, inbox_view<test_msg>) {
        ctx.send(static_cast<port_id>(ctx.degree()), test_msg{});
    }
};

TEST(Engine, PortOutOfRangeThrows) {
    if (!congest_guard_checks) {
        GTEST_SKIP() << "CONGEST guards compiled out in Release";
    }
    graph g = make_cycle(3);
    engine<port_overflow> eng(g, 1);
    eng.spawn([](std::size_t) { return port_overflow(0); });
    EXPECT_THROW(eng.run_rounds(1), error);
}

class big_sender {
public:
    using message_type = test_msg;
    explicit big_sender(std::size_t bits) : bits_(bits) {}
    void on_round(node_ctx<test_msg>& ctx, inbox_view<test_msg>) {
        ctx.send(0, test_msg{0, bits_});
    }

private:
    std::size_t bits_;
};

TEST(Engine, StrictBudgetRejectsOversize) {
    graph g = make_cycle(4);  // budget = 4 * ceil(log2 3) = 8 bits
    congest_budget strict = congest_budget::strict_log(4);
    engine<big_sender> eng(g, 1, strict);
    eng.spawn([](std::size_t) { return big_sender(100); });
    EXPECT_THROW(eng.run_rounds(1), error);
}

TEST(Engine, StrictBudgetAcceptsFitting) {
    graph g = make_cycle(4);
    engine<big_sender> eng(g, 1, congest_budget::strict_log(4));
    eng.spawn([](std::size_t) { return big_sender(8); });
    EXPECT_NO_THROW(eng.run_rounds(2));
}

TEST(Engine, FragmentBudgetChargesCongestRounds) {
    graph g = make_cycle(4);
    congest_budget frag = congest_budget::fragmenting(4);  // 8 bits/round
    engine<big_sender> eng(g, 1, frag);
    eng.spawn([](std::size_t) { return big_sender(33); });  // ⌈33/8⌉ = 5
    eng.run_rounds(2);
    EXPECT_EQ(eng.metrics().total().rounds, 2u);
    EXPECT_EQ(eng.metrics().total().congest_rounds, 10u);
}

TEST(Engine, CountOnlyIgnoresBudget) {
    graph g = make_cycle(4);
    engine<big_sender> eng(g, 1, congest_budget::unlimited());
    eng.spawn([](std::size_t) { return big_sender(10000); });
    eng.run_rounds(2);
    EXPECT_EQ(eng.metrics().total().congest_rounds, 2u);  // uncharged
    EXPECT_EQ(eng.metrics().total().bits, 8u * 10000);
}

class halts_at {
public:
    using message_type = test_msg;
    halts_at(std::size_t degree, std::uint64_t when) : degree_(degree), when_(when) {}
    void on_round(node_ctx<test_msg>& ctx, inbox_view<test_msg> inbox) {
        for (const auto& kv : inbox) {
            (void)kv;
            ++heard_;
        }
        if (ctx.round() >= when_) {
            ctx.halt();
            return;
        }
        for (port_id p = 0; p < degree_; ++p) ctx.send(p, test_msg{});
    }
    std::uint64_t heard_ = 0;

private:
    std::size_t degree_;
    std::uint64_t when_;
};

TEST(Engine, HaltStopsNode) {
    graph g = make_cycle(4);
    engine<halts_at> eng(g, 1);
    eng.spawn([&](std::size_t u) { return halts_at(g.degree(u), u == 0 ? 0 : 100); });
    eng.run_rounds(3);
    EXPECT_EQ(eng.halted_count(), 1u);
    // Node 0 halted at round 0: heard nothing ever.
    EXPECT_EQ(eng.node(0).heard_, 0u);
}

TEST(Engine, RunUntilHalted) {
    graph g = make_cycle(4);
    engine<halts_at> eng(g, 1);
    eng.spawn([&](std::size_t u) { return halts_at(g.degree(u), 5); });
    const auto rounds = eng.run_until_halted(100);
    EXPECT_EQ(rounds, 6u);
    EXPECT_EQ(eng.halted_count(), 4u);
}

TEST(Engine, RunUntilHaltedThrowsOnBudget) {
    graph g = make_cycle(4);
    engine<halts_at> eng(g, 1);
    eng.spawn([&](std::size_t u) { return halts_at(g.degree(u), 1000); });
    EXPECT_THROW(eng.run_until_halted(10), error);
}

TEST(Engine, DeterministicAcrossRuns) {
    graph g = make_random_regular(20, 4, 3);
    auto run = [&](std::uint64_t seed) {
        engine<chatter> eng(g, seed);
        eng.spawn([&](std::size_t u) { return chatter(g.degree(u)); });
        eng.run_rounds(10);
        std::uint64_t acc = 0;
        for (std::size_t u = 0; u < g.num_nodes(); ++u) acc += eng.node(u).received_;
        return std::make_pair(acc, eng.metrics().total().messages);
    };
    EXPECT_EQ(run(5), run(5));
}

TEST(Engine, SpawnTwiceThrows) {
    graph g = make_cycle(3);
    engine<chatter> eng(g, 1);
    eng.spawn([&](std::size_t u) { return chatter(g.degree(u)); });
    EXPECT_THROW(eng.spawn([&](std::size_t u) { return chatter(g.degree(u)); }),
                 error);
}

TEST(Engine, StepWithoutSpawnThrows) {
    graph g = make_cycle(3);
    engine<chatter> eng(g, 1);
    EXPECT_THROW(eng.run_rounds(1), error);
}

// Flat-slot transport: a message is visible exactly one round, then its
// stamp expires — no stale redelivery, no explicit clearing.
class one_shot {
public:
    using message_type = test_msg;
    explicit one_shot(std::size_t degree) : degree_(degree) {}
    void on_round(node_ctx<test_msg>& ctx, inbox_view<test_msg> inbox) {
        sizes_.push_back(inbox.size());
        empties_.push_back(inbox.empty());
        if (ctx.round() == 0) {
            for (port_id p = 0; p < degree_; ++p) ctx.send(p, test_msg{7, 8});
        }
    }
    std::vector<std::size_t> sizes_;
    std::vector<bool> empties_;

private:
    std::size_t degree_;
};

TEST(Engine, SlotStampsExpireAfterOneRound) {
    graph g = make_cycle(4);
    engine<one_shot> eng(g, 1);
    eng.spawn([&](std::size_t u) { return one_shot(g.degree(u)); });
    eng.run_rounds(4);
    for (std::size_t u = 0; u < 4; ++u) {
        const auto& n = eng.node(u);
        ASSERT_EQ(n.sizes_.size(), 4u);
        EXPECT_EQ(n.sizes_[0], 0u);  // nothing in flight yet
        EXPECT_EQ(n.sizes_[1], 2u);  // both neighbors' round-0 sends
        EXPECT_EQ(n.sizes_[2], 0u);  // delivered once, never again
        EXPECT_EQ(n.sizes_[3], 0u);
        EXPECT_TRUE(n.empties_[0]);
        EXPECT_FALSE(n.empties_[1]);
        EXPECT_TRUE(n.empties_[2]);
    }
}

// Anonymity: a protocol's aggregate outcome distribution must be the same
// under any port relabeling (here: exact equality of mass aggregates,
// since chatter is symmetric and deterministic in structure).
TEST(Engine, PortPermutationInvariantAggregate) {
    graph g = make_torus(4, 4);
    graph h = g.with_permuted_ports(77);
    auto total = [&](const graph& gg) {
        engine<chatter> eng(gg, 9);
        eng.spawn([&](std::size_t u) { return chatter(gg.degree(u)); });
        eng.run_rounds(8);
        std::uint64_t acc = 0;
        for (std::size_t u = 0; u < gg.num_nodes(); ++u) acc += eng.node(u).received_;
        return acc;
    };
    EXPECT_EQ(total(g), total(h));
}

// --- wake hint (active-set rounds) ------------------------------------------

// Records every round it is stepped. At its first step it asks to sleep
// until `sleep_to`; it sends on port 0 in round `send_round`.
class sleeper {
public:
    using message_type = test_msg;
    sleeper(std::uint64_t sleep_to, std::uint64_t send_round)
        : sleep_to_(sleep_to), send_round_(send_round) {}
    void on_round(node_ctx<test_msg>& ctx, inbox_view<test_msg> inbox) {
        if (stepped_.empty() && sleep_to_ > 0) ctx.sleep_until(sleep_to_);
        stepped_.push_back(ctx.round());
        heard_ += inbox.size();
        if (ctx.round() == send_round_) ctx.send(0, test_msg{});
    }
    std::vector<std::uint64_t> stepped_;
    std::size_t heard_ = 0;

private:
    std::uint64_t sleep_to_;
    std::uint64_t send_round_;
};

TEST(Engine, SleepingNodeWakesOnMailOrHintOnly) {
    const graph g = make_path(2);
    engine<sleeper> eng(g, 1);
    // Node 0 stays awake and mails node 1 in round 4 (delivered in 5);
    // node 1 sleeps until round 10 from round 0 on.
    eng.spawn([](std::size_t u) {
        return u == 0 ? sleeper(0, 4) : sleeper(10, UINT64_MAX);
    });
    eng.run_rounds(12);
    EXPECT_EQ(eng.node(0).stepped_.size(), 12u);
    // Mail wakes it for one round; the sticky hint then holds until 10,
    // after which a past hint means every round.
    EXPECT_EQ(eng.node(1).stepped_, (std::vector<std::uint64_t>{0, 5, 10, 11}));
    EXPECT_EQ(eng.node(1).heard_, 1u);
    EXPECT_EQ(eng.node_steps(), 16u);
}

TEST(Engine, NodeStepsCountsEveryOnRoundByDefault) {
    const graph g = make_cycle(5);
    engine<chatter> eng(g, 1);
    eng.spawn([&](std::size_t u) { return chatter(g.degree(u)); });
    eng.run_rounds(7);
    EXPECT_EQ(eng.node_steps(), 35u);
}

TEST(Engine, SleepingNodesIdenticalAcrossNodeJobs) {
    const graph g = make_cycle(40);
    auto run = [&](std::size_t node_jobs) {
        engine<sleeper> eng(g, 3);
        eng.set_parallelism(nullptr, node_jobs);
        eng.spawn([](std::size_t u) { return sleeper(u % 7, u % 5 == 0 ? 3 : 9); });
        eng.run_rounds(12);
        std::vector<std::uint64_t> out{eng.node_steps()};
        for (std::size_t u = 0; u < g.num_nodes(); ++u) {
            const auto& s = eng.node(u).stepped_;
            out.insert(out.end(), s.begin(), s.end());
            out.push_back(UINT64_MAX);
        }
        return out;
    };
    const auto serial = run(1);
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(8), serial);
}

// A node that sleeps for good at its first step: only a fresh instance
// (a membership rejoin) ever runs it again.
class hibernator {
public:
    using message_type = test_msg;
    void on_round(node_ctx<test_msg>& ctx, inbox_view<test_msg>) {
        ++steps_;
        ctx.sleep_until(UINT64_MAX);
    }
    std::uint64_t steps_ = 0;
};

TEST(Engine, MembershipRejoinClearsWakeHint) {
    const graph g = make_cycle(12);
    dynamics_spec spec;
    spec.leave_prob = 0.2;
    spec.join_prob = 1.0;
    engine<hibernator> eng(g, 4);
    eng.set_dynamics(spec, 4);
    eng.spawn([](std::size_t) { return hibernator(); });
    eng.run_rounds(30);
    const std::uint64_t joins = eng.dynamics()->stats().joins;
    ASSERT_GT(joins, 0u);
    // Every present instance ran exactly once: a respawned one in its
    // rejoin round, despite its predecessor's hint. (An original that
    // left in round 0's pre-pass never ran.)
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        if (eng.node_present(u)) {
            EXPECT_EQ(eng.node(u).steps_, 1u) << "node " << u;
        } else {
            EXPECT_LE(eng.node(u).steps_, 1u) << "node " << u;
        }
    }
    EXPECT_GE(eng.node_steps(), joins);
    EXPECT_LE(eng.node_steps(), g.num_nodes() + joins);
}

}  // namespace
}  // namespace anole
