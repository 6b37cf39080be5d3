// Differential tests for node_ctx::send_all, the engine's per-sender
// broadcast payload: a protocol that broadcasts through send_all must be
// indistinguishable — per-node receive digests, metrics, halting, node
// steps and the realized dynamics schedule — from the same protocol
// sending one copy per port. Checked on every topology family under every
// dynamics preset (re-wiring, churn, loss, crash, sleep, adaptive
// adversaries, membership) and for node_jobs 1/2/8.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "sim/dynamics.h"
#include "sim/engine.h"

namespace anole {
namespace {

// A payload with a heap member, so a shared payload that was not copied
// deeply, or was read from the wrong sender, shows up in the digests.
struct heap_msg {
    std::vector<std::uint64_t> words;
    [[nodiscard]] std::size_t bit_size() const noexcept { return 4 + 24 * words.size(); }
};

enum class send_path { per_port, send_all };

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    return (h ^ v) * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL;
}

// Broadcasts a random payload most rounds (through `path`), sends on a
// random subset of ports now and then (so per-port and broadcast senders
// mix within one round), stays silent sometimes, sleeps through the wake
// hint, and halts at a random round. Every random draw is the same on
// both paths.
class caster {
public:
    using message_type = heap_msg;
    caster(std::size_t degree, send_path path) : degree_(degree), path_(path) {}

    void on_round(node_ctx<heap_msg>& ctx, inbox_view<heap_msg> inbox) {
        for (const auto& [port, msg] : inbox) {
            digest_ = mix(digest_, port);
            digest_ = mix(digest_, msg.words.size());
            for (const std::uint64_t w : msg.words) digest_ = mix(digest_, w);
            ++received_;
        }
        if (halt_round_ == 0) halt_round_ = 20 + ctx.rng().below(30);
        if (ctx.round() >= halt_round_) {
            ctx.halt();
            return;
        }
        const std::uint64_t action = ctx.rng().below(8);
        if (action == 0) return;  // silent round
        if (action == 1) {        // a partial round, on either path
            for (port_id p = 0; p < degree_; ++p) {
                if (ctx.rng().bit()) ctx.send(p, heap_msg{{ctx.rng()()}});
            }
            return;
        }
        heap_msg m;
        m.words.resize(ctx.rng().below(4));
        for (std::uint64_t& w : m.words) w = ctx.rng()();
        if (path_ == send_path::send_all) {
            ctx.send_all(m);
        } else {
            for (port_id p = 0; p < degree_; ++p) ctx.send(p, m);
        }
        if (ctx.rng().below(4) == 0) ctx.sleep_until(ctx.round() + 2 + ctx.rng().below(3));
    }

    [[nodiscard]] node_status status() const {
        node_status st;
        st.decided = received_ > 3;
        st.leader = st.decided && digest_ % 5 == 0;
        return st;
    }

    std::uint64_t digest_ = 0;
    std::uint64_t received_ = 0;

private:
    std::size_t degree_;
    send_path path_;
    std::uint64_t halt_round_ = 0;
};

struct run_digest {
    std::vector<std::uint64_t> digests;
    std::vector<std::uint64_t> received;
    std::uint64_t rounds = 0;
    std::size_t halted = 0;
    std::size_t present = 0;
    std::uint64_t node_steps = 0;
    phase_counters totals;
    dynamics_stats schedule;

    bool operator==(const run_digest&) const = default;
};

// Budget of 20 bits: payloads of 1-3 words (28-76 bits) fragment.
constexpr congest_budget kBudget{budget_mode::fragment, 20, 4};

run_digest run_caster(const graph& g, send_path path, const dynamics_spec& dyn,
                      std::size_t node_jobs, std::uint64_t seed) {
    engine<caster> eng(g, seed, kBudget);
    eng.set_parallelism(nullptr, node_jobs);
    eng.set_dynamics(dyn, seed);
    eng.spawn([&](std::size_t u) { return caster(g.degree(static_cast<node_id>(u)), path); });
    eng.set_status_probe([&eng](std::size_t u) { return eng.node(u).status(); });
    eng.run_rounds(60);
    run_digest d;
    d.rounds = eng.round();
    d.halted = eng.halted_count();
    d.present = eng.present_count();
    d.node_steps = eng.node_steps();
    d.totals = eng.metrics().total();
    if (eng.dynamics() != nullptr) d.schedule = eng.dynamics()->stats();
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        d.digests.push_back(eng.node(u).digest_);
        d.received.push_back(eng.node(u).received_);
    }
    return d;
}

// The acceptance sweep: 19 families x every preset x node_jobs {1,2,8}.
TEST(EngineBroadcast, SendAllMatchesPerPortEverywhere) {
    std::size_t families = 0;
    for (const graph_family f : all_families()) {
        const graph g = make_family(f, 24, 5);
        ++families;
        for (const auto& [dname, dspec] : all_dynamics_presets()) {
            const run_digest ref = run_caster(g, send_path::per_port, dspec, 1, 17);
            EXPECT_GT(ref.totals.messages, 0u) << to_string(f) << "@" << dname;
            for (const std::size_t jobs : {1, 2, 8}) {
                EXPECT_EQ(run_caster(g, send_path::send_all, dspec, jobs, 17), ref)
                    << to_string(f) << "@" << dname << " node_jobs=" << jobs;
            }
        }
    }
    EXPECT_EQ(families, 19u);
}

// A lone node has degree 0: send_all charges nothing and delivers nothing.
TEST(EngineBroadcast, DegreeZeroNodeIsChargedNothing) {
    const graph g(1, {}, "lone");
    ASSERT_EQ(g.num_nodes(), 1u);
    ASSERT_EQ(g.degree(0), 0u);
    for (const auto& [dname, dspec] : all_dynamics_presets()) {
        const run_digest ref = run_caster(g, send_path::per_port, dspec, 1, 3);
        const run_digest all = run_caster(g, send_path::send_all, dspec, 1, 3);
        EXPECT_EQ(all, ref) << dname;
        EXPECT_EQ(all.totals.messages, 0u) << dname;
        EXPECT_EQ(all.totals.bits, 0u) << dname;
        EXPECT_EQ(all.totals.congest_rounds, all.totals.rounds) << dname;
    }
}

// Sends an oversize message on every port, one way or the other.
class oversize_caster {
public:
    using message_type = heap_msg;
    oversize_caster(std::size_t degree, send_path path) : degree_(degree), path_(path) {}
    void on_round(node_ctx<heap_msg>& ctx, inbox_view<heap_msg>) {
        const heap_msg m{{1, 2, 3}};  // 76 bits
        if (path_ == send_path::send_all) {
            ctx.send_all(m);
        } else {
            for (port_id p = 0; p < degree_; ++p) ctx.send(p, m);
        }
    }

private:
    std::size_t degree_;
    send_path path_;
};

// Budget semantics match the per-port loop: a strict budget rejects an
// oversize broadcast, except from a degree-0 node, which sends nothing.
TEST(EngineBroadcast, StrictBudgetMatchesPerPort) {
    constexpr congest_budget strict{budget_mode::strict, 20, 4};
    for (const send_path path : {send_path::per_port, send_path::send_all}) {
        const graph cycle = make_cycle(5);
        engine<oversize_caster> eng(cycle, 1, strict);
        eng.spawn([&](std::size_t) { return oversize_caster(2, path); });
        EXPECT_THROW(eng.run_rounds(1), error);

        const graph lone(1, {}, "lone");
        engine<oversize_caster> solo(lone, 1, strict);
        solo.spawn([&](std::size_t) { return oversize_caster(0, path); });
        EXPECT_NO_THROW(solo.run_rounds(3));
        EXPECT_EQ(solo.metrics().total().messages, 0u);
    }
}

}  // namespace
}  // namespace anole
