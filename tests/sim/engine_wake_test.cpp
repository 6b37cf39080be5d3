// Differential tests for the engine's wake calendar: a protocol that
// sleeps through the wake hint must produce exactly the run of the same
// protocol stepped every round, where a test-only wrapper replays the
// hint contract itself. The wrapper keeps the engine's hint at 0, so the
// engine steps it in every round it is alive and awake, and runs the
// inner protocol only when the hint the inner protocol asked for has come
// or mail is live — the rule the engine is meant to apply. Per-node
// digests, metrics, halting, membership and the realized dynamics
// schedule must match, and the sleeping run's node-steps must equal the
// wrapper's count of inner steps. Checked on every topology family under
// every dynamics preset, for node_jobs 1/2/8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/generators.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "sim/wake_calendar.h"
#include "util/rng.h"

namespace anole {
namespace {

struct probe_msg {
    std::uint64_t value = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept { return 8; }
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    return (h ^ v) * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL;
}

constexpr std::uint64_t kRounds = 80;

// Mostly asleep: sends on a few random ports now and then, and moves its
// hint every way the contract allows — cleared, to the current round, to
// the next round, a few rounds out, earlier or later than the hint it
// held, past the end of the run, and set twice in one round. Records the
// hint it asked for last.
class dozer {
public:
    using message_type = probe_msg;
    explicit dozer(std::size_t degree) : degree_(degree) {}

    void on_round(node_ctx<probe_msg>& ctx, inbox_view<probe_msg> inbox) {
        for (const auto& [port, msg] : inbox) {
            digest_ = mix(mix(digest_, port), msg.value);
            ++received_;
        }
        digest_ = mix(digest_, ctx.round());
        if (halt_round_ == 0) halt_round_ = 30 + ctx.rng().below(60);
        if (ctx.round() >= halt_round_) {
            ctx.halt();
            return;
        }
        if (ctx.rng().below(3) == 0) {
            for (port_id p = 0; p < degree_; ++p) {
                if (ctx.rng().below(3) == 0) ctx.send(p, probe_msg{ctx.rng()()});
            }
        }
        const std::uint64_t r = ctx.round();
        switch (ctx.rng().below(9)) {
            case 0: hint(ctx, 0); break;
            case 1: hint(ctx, r); break;
            case 2: hint(ctx, r + 1); break;
            case 3: hint(ctx, r + 2 + ctx.rng().below(8)); break;
            case 4:  // earlier than the hint held, if that is still ahead
                if (hint_ > r + 2) hint(ctx, hint_ - 1 - ctx.rng().below(hint_ - r - 2));
                break;
            case 5: hint(ctx, hint_ + 1 + ctx.rng().below(5)); break;  // later
            case 6: hint(ctx, kRounds + 100 + ctx.rng().below(1000)); break;
            case 7:  // set twice: the second call wins
                hint(ctx, r + 20);
                hint(ctx, r + 3);
                break;
            default: break;  // keep the hint held (it is sticky)
        }
    }

    // The hint this node last asked for (0 = none).
    [[nodiscard]] std::uint64_t hint() const noexcept { return hint_; }

    [[nodiscard]] node_status status() const {
        node_status st;
        st.decided = received_ > 2;
        st.leader = st.decided && digest_ % 7 == 0;
        return st;
    }

    std::uint64_t digest_ = 0;
    std::uint64_t received_ = 0;

private:
    void hint(node_ctx<probe_msg>& ctx, std::uint64_t r) {
        hint_ = r;
        ctx.sleep_until(r);
    }

    std::size_t degree_;
    std::uint64_t halt_round_ = 0;
    std::uint64_t hint_ = 0;
};

// Test-only wrapper: stepped by the engine in every round (its engine
// hint stays 0), it runs the inner protocol only when the inner hint has
// come or mail is live, and counts those inner steps in a per-node
// counter that outlives a respawn.
class gated {
public:
    using message_type = probe_msg;
    gated(std::size_t degree, std::uint64_t* inner_steps)
        : inner_(degree), inner_steps_(inner_steps) {}

    void on_round(node_ctx<probe_msg>& ctx, inbox_view<probe_msg> inbox) {
        if (inner_.hint() > ctx.round() && inbox.empty()) return;
        ++*inner_steps_;
        inner_.on_round(ctx, inbox);
        ctx.sleep_until(0);
    }

    [[nodiscard]] const dozer& inner() const noexcept { return inner_; }

private:
    dozer inner_;
    std::uint64_t* inner_steps_;
};

const dozer& inner(const dozer& d) { return d; }
const dozer& inner(const gated& g) { return g.inner(); }

struct run_digest {
    std::vector<std::uint64_t> digests;
    std::vector<std::uint64_t> received;
    std::vector<std::uint64_t> membership;
    std::uint64_t rounds = 0;
    std::size_t halted = 0;
    std::size_t present = 0;
    std::uint64_t node_steps = 0;  // sleeping run: engine steps; wrapper: inner steps
    phase_counters totals;
    dynamics_stats schedule;

    bool operator==(const run_digest&) const = default;
};

template <class Node>
run_digest run_nodes(const graph& g, const dynamics_spec& dyn, std::size_t node_jobs,
                     std::uint64_t seed) {
    engine<Node> eng(g, seed);
    eng.set_parallelism(nullptr, node_jobs);
    eng.set_dynamics(dyn, seed);
    std::vector<std::uint64_t> inner_steps(g.num_nodes(), 0);
    eng.spawn([&](std::size_t u) {
        const std::size_t degree = g.degree(static_cast<node_id>(u));
        if constexpr (std::is_same_v<Node, gated>) {
            return gated(degree, &inner_steps[u]);
        } else {
            return dozer(degree);
        }
    });
    eng.set_status_probe([&eng](std::size_t u) { return inner(eng.node(u)).status(); });
    eng.run_rounds(kRounds);
    run_digest d;
    d.rounds = eng.round();
    d.halted = eng.halted_count();
    d.present = eng.present_count();
    d.totals = eng.metrics().total();
    if (eng.dynamics() != nullptr) d.schedule = eng.dynamics()->stats();
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        const dozer& nd = inner(eng.node(u));
        d.digests.push_back(nd.digest_);
        d.received.push_back(nd.received_);
        d.membership.push_back((eng.node_present(u) ? 1u : 0u) |
                               (eng.node_crashed(u) ? 2u : 0u) |
                               (eng.node_halted(u) ? 4u : 0u));
        d.node_steps += inner_steps[u];
    }
    if constexpr (std::is_same_v<Node, dozer>) d.node_steps = eng.node_steps();
    return d;
}

// The acceptance sweep: 19 families x every preset x node_jobs {1,2,8}.
TEST(EngineWake, CalendarMatchesHintContractEverywhere) {
    std::size_t families = 0;
    std::uint64_t sleeping_steps = 0;
    std::uint64_t awake_steps = 0;
    for (const graph_family f : all_families()) {
        const graph g = make_family(f, 24, 5);
        ++families;
        for (const auto& [dname, dspec] : all_dynamics_presets()) {
            const run_digest ref = run_nodes<gated>(g, dspec, 1, 23);
            EXPECT_GT(ref.totals.messages, 0u) << to_string(f) << "@" << dname;
            for (const std::size_t jobs : {1, 2, 8}) {
                const run_digest sleeping = run_nodes<dozer>(g, dspec, jobs, 23);
                EXPECT_EQ(sleeping, ref)
                    << to_string(f) << "@" << dname << " node_jobs=" << jobs;
            }
            sleeping_steps += ref.node_steps;
            awake_steps += ref.rounds * g.num_nodes();
        }
    }
    EXPECT_EQ(families, 19u);
    // The hints must put most node-rounds to sleep, or the calendar is
    // never exercised.
    EXPECT_LT(sleeping_steps * 2, awake_steps);
}

// More nodes and seeds on a few families, where most rounds visit a short
// candidate list.
TEST(EngineWake, CalendarMatchesHintContractAtLargerN) {
    for (const graph_family f : {graph_family::barabasi_albert, graph_family::torus,
                                 graph_family::dumbbell, graph_family::cycle}) {
        const graph g = make_family(f, 200, 2);
        for (const char* preset : {"static", "rewire", "churn", "sleep"}) {
            const dynamics_spec dyn = *dynamics_preset(preset);
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                const run_digest ref = run_nodes<gated>(g, dyn, 1, seed);
                for (const std::size_t jobs : {1, 3}) {
                    EXPECT_EQ(run_nodes<dozer>(g, dyn, jobs, seed), ref)
                        << to_string(f) << "@" << preset << " seed " << seed
                        << " node_jobs=" << jobs;
                }
            }
        }
    }
}

TEST(WakeCalendar, PopsDueEntriesAndKeepsOneEntryPerNode) {
    wake_calendar cal(8);
    EXPECT_TRUE(cal.empty());
    cal.set(3, 10);
    cal.set(5, 4);
    cal.set(1, 7);
    cal.set(3, 2);  // earlier: moved, not duplicated
    cal.set(5, 9);  // later
    EXPECT_EQ(cal.size(), 3u);
    EXPECT_EQ(cal.key(3), 2u);
    EXPECT_EQ(cal.key(0), 0u);
    std::vector<node_id> due;
    cal.pop_due(7, [&](node_id u) { due.push_back(u); });
    EXPECT_EQ(due, (std::vector<node_id>{3, 1}));
    EXPECT_EQ(cal.key(3), 0u);
    cal.erase(5);
    cal.erase(5);  // no entry: a no-op
    EXPECT_TRUE(cal.empty());
    due.clear();
    cal.pop_due(100, [&](node_id u) { due.push_back(u); });
    EXPECT_TRUE(due.empty());
}

// Against a reference model: random set/erase/pop sequences.
TEST(WakeCalendar, MatchesAReferenceModel) {
    constexpr std::size_t n = 40;
    wake_calendar cal(n);
    std::vector<std::uint64_t> model(n, 0);
    xoshiro256ss rng(99);
    for (std::uint64_t r = 1; r < 3000; ++r) {
        const auto u = static_cast<node_id>(rng.below(n));
        if (rng.below(4) == 0) {
            cal.erase(u);
            model[u] = 0;
        } else {
            const std::uint64_t k = r + 1 + rng.below(50);
            cal.set(u, k);
            model[u] = k;
        }
        std::vector<node_id> due;
        cal.pop_due(r, [&](node_id v) { due.push_back(v); });
        std::vector<node_id> expect;
        for (node_id v = 0; v < n; ++v) {
            if (model[v] != 0 && model[v] <= r) {
                expect.push_back(v);
                model[v] = 0;
            }
        }
        std::sort(due.begin(), due.end());
        ASSERT_EQ(due, expect) << "round " << r;
        std::size_t live = 0;
        for (node_id v = 0; v < n; ++v) {
            ASSERT_EQ(cal.key(v), model[v]);
            live += model[v] != 0 ? 1 : 0;
        }
        ASSERT_EQ(cal.size(), live);
    }
}

}  // namespace
}  // namespace anole
