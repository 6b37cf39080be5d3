// anole — synchronous CONGEST round engine.
//
// Executes one protocol instance per node of a graph under the model of
// the paper (§2): globally synchronous rounds; per round each node may
// send at most one message per incident link direction; delivery happens
// at the start of the next round; local computation is free.
//
// Anonymity is enforced by construction: protocol code receives a
// `node_ctx` exposing *only* the local degree, port-indexed send, a
// private RNG stream, the round number and a halt switch. Node indices
// exist solely on the engine side for bookkeeping. Tests additionally run
// protocols under randomly permuted port labelings (graph::
// with_permuted_ports) to catch accidental label dependence.
//
// The engine is a class template over the protocol type P, which must
// provide:
//     using message_type = ...;   // copyable, default-constructible,
//                                 // with bit_size() -> size_t
//     void on_round(node_ctx<message_type>& ctx,
//                   inbox_view<message_type> inbox);
//
// The inbox is the list of (arrival port, message) pairs delivered this
// round, in a deterministic but protocol-unobservable order. By default
// on_round is called every round for every non-halted node. A node that
// calls ctx.halt() is never stepped again and sends nothing.
//
// --- wake hint: active-set rounds ---
//
// A protocol may opt in to skipping rounds it has no work in by calling
// ctx.sleep_until(r): the node is then not stepped before round r unless
// a message is live on one of its in-ports this round (checked after the
// dynamics pass, so relocated, lost and released messages count
// correctly). The hint is sticky until the node overwrites it; a hint at
// or before the current round (sleep_until(0) in particular) means
// "every round", the default. A membership rejoin clears it. The
// contract is on the protocol: a skipped round must be indistinguishable
// from an on_round call that sends nothing, draws no randomness and
// changes no state — waking early is always safe, sleeping through work
// is not. Each node writes only its own hint, so sharded rounds stay
// bitwise-identical to serial ones. node_steps() counts the on_round
// calls actually made.
//
// --- wake calendar: a round costs O(candidates), not O(n) ---
//
// A round visits only its candidates, in ascending node order, and steps
// those that pass the predicate above. The candidates are
//   * the nodes without a future hint (the previous round's "awake"
//     filings),
//   * the nodes whose hint comes due: a wake_calendar holds one entry per
//     node sleeping beyond the next round, keyed by its wake round, and
//     moves or drops it when the node re-hints,
//   * the receivers of the previous round's sends, filed by each sender
//     from its staged out-slots (rewiring relabels ports but never
//     changes the node at an edge's far end, so this survives the
//     dynamics pass), and
//   * the nodes the dynamics pass rejoined.
// Every live node is a candidate or holds a calendar entry, so the
// visited set is a superset of the stepped set and the steps — and every
// message, RNG draw and cost counter — are those of a full scan. Filings
// are recorded only while the calendar is non-empty at the start of a
// round; a round after one that did not record visits every node (the
// first sleepers' round costs one full visit). Protocols that never hint
// therefore keep the plain every-node loop and file nothing. Shards file
// into their own lists, read serially in shard order between rounds, so
// there are no cross-shard writes. Memory: the calendar and filings are
// O(n), whatever the number of re-hints.
//
// --- broadcast payload: ctx.send_all(m) ---
//
// A node that sends the same message on every port may call
// ctx.send_all(m) instead of looping over ctx.send(p, m). The contract:
//   * at most one send_all per node per round, and no ctx.send in a round
//     that uses it (both are CONGEST guards, checked in Debug like the
//     double-send guard);
//   * it counts exactly as `degree` sends of m: degree messages,
//     degree × m.bit_size() bits and the same fragmentation charge; a
//     degree-0 node is charged nothing;
//   * every out-slot of the sender is still stamped, so liveness stays
//     per edge: loss, churn, leave/join, sleep, adaptive kills, trace
//     replay and wake hints see exactly what the per-port loop produces;
//   * only the payload is shared: it is stored once per sender in a
//     double-buffered per-node array instead of once per out-slot. A
//     receiver whose live slot s belongs to a sender that broadcast in
//     the delivering round reads that sender's payload. The sender is
//     resolved through the static slot→owner map (owner[s]), never a
//     neighbour table: port re-wiring permutes slots only inside one
//     owner's range, so owner[s] stays right after any rewire.
//
// --- message transport: flat single-writer slots ---
//
// The CONGEST invariant — at most one message per (node, port) per round
// — means the whole network's in-flight traffic fits in exactly 2m
// slots, one per directed edge, laid out CSR-style and indexed by the
// *sender*:
//
//     slot(u, p) = slot_base_[u] + p          (p = out-port at u)
//
//     cur_msg_   [ u0.p0 | u0.p1 | u1.p0 | u1.p1 | u1.p2 | ... ]  2m slots
//     cur_stamp_ [   7   |   -   |   -   |   7   |   7   | ... ]  parallel
//
// A slot holds a live message iff its stamp equals the current round's
// delivery mark (round + 1; stamps only ever grow, so nothing is ever
// cleared). Sender-major order makes the expensive half of transport —
// the writes — perfectly dense: staging a send is two stores into the
// node's own contiguous slot ranges (a double send is caught as a
// repeated stamp right there), and a whole round's staging is a single
// sequential pass over the buffers. Delivery is the cheap half: node v's
// inbox gathers through the precomputed peer-slot table
// (peer[slot(v, q)] = slot(u, p), an involution) — scattered *reads*,
// which dirty no cache lines and land in the compact stamp/message
// arrays rather than padded structs. End of round, the cur/nxt buffers
// swap in O(1). Compared to per-node inbox vectors this removes all
// per-message heap traffic, the per-send engine round-trip and metrics
// work, the scattered delivery stores, and the O(n) per-round clear.
//
// Because every slot has a unique writer and every node draws from a
// private RNG stream, rounds can also be sharded across a thread pool
// with results bitwise-identical to serial execution — see
// set_parallelism() / engine_parallelism below ("--node-jobs" in the
// benches). Per-shard cost counters are reduced deterministically after
// the barrier.
//
// Cost accounting (sim/metrics.h): every send tallies one message and its
// exact bit size; budget policies (sim/budget.h) reject or fragment
// messages exceeding the per-link CONGEST budget. In fragment mode a
// round's time cost is the worst ⌈bits/budget⌉ over its messages — the
// synchronous network advances at the slowest link's pace, matching the
// paper's own accounting of bit-by-bit potential transmission.
//
// CONGEST-guard checks (port range, double send) are hard errors in
// Debug builds and compiled out in Release, so the measured hot path
// carries no per-send branch for them. The default build type (and so
// the tier-1 test command) is Release, where the two guard tests skip;
// the Debug CI job is what exercises them. Budget violations are *model
// semantics*, not guards, and throw in every configuration.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sim/budget.h"
#include "sim/dynamics.h"
#include "sim/metrics.h"
#include "sim/thread_pool.h"
#include "sim/wake_calendar.h"
#include "util/error.h"
#include "util/rng.h"

namespace anole {

template <class M>
concept congest_message = std::copyable<M> && std::default_initializable<M> &&
                          requires(const M& m) {
    { m.bit_size() } -> std::convertible_to<std::size_t>;
};

// True when the engine validates protocol behaviour (port range, one send
// per port per round) with throwing checks. Debug only; Release trusts
// protocol code and compiles the guards out (tests that provoke
// violations must skip themselves when this is false).
#ifndef NDEBUG
inline constexpr bool congest_guard_checks = true;
#else
inline constexpr bool congest_guard_checks = false;
#endif

// The per-sender payloads of the broadcasts (ctx.send_all) a round
// delivers, shared by every inbox of the round. Engine-owned.
template <congest_message Msg>
struct broadcast_payloads {
    const Msg* msgs = nullptr;              // one payload per sender node
    const std::uint32_t* stamps = nullptr;  // its delivery stamp
    const node_id* owner = nullptr;         // static slot -> sender map
};

// Messages delivered to a node this round, as (arrival port, payload)
// pairs. A lightweight view over the node's arrival ports: port q's
// message, if any, sits in the *sender's* staging slot (located via the
// precomputed peer-slot table) and is live iff its stamp matches this
// round's delivery mark. Stamps and payloads live in separate dense
// arrays so the stamp gathers touch a small array that stays cached.
// Iteration order is ascending port — deterministic, but protocols must
// not (and cannot) attribute meaning to it beyond the port labels. A
// live slot whose owner broadcast in the delivering round (ctx.send_all)
// carries no payload of its own: the owner's per-node payload is read
// instead. `bcast` is null in rounds that deliver no broadcast.
template <congest_message Msg>
class inbox_view {
public:
    class iterator {
    public:
        using value_type = std::pair<port_id, const Msg&>;

        value_type operator*() const noexcept {
            return {pos_, view_->payload(view_->peer_[pos_])};
        }
        iterator& operator++() noexcept {
            ++pos_;
            skip();
            return *this;
        }
        [[nodiscard]] bool operator==(const iterator& o) const noexcept {
            return pos_ == o.pos_;
        }
        [[nodiscard]] bool operator!=(const iterator& o) const noexcept {
            return pos_ != o.pos_;
        }

    private:
        friend class inbox_view;
        iterator(const inbox_view* view, port_id pos) noexcept : view_(view), pos_(pos) {
            skip();
        }
        void skip() noexcept {
            while (pos_ < view_->degree_ &&
                   view_->stamps_[view_->peer_[pos_]] != view_->mark_) {
                ++pos_;
            }
        }
        const inbox_view* view_;
        port_id pos_;
    };

    inbox_view() noexcept = default;  // empty
    inbox_view(const Msg* msgs, const std::uint32_t* stamps, const std::uint32_t* peer,
               std::uint32_t mark, port_id degree,
               const broadcast_payloads<Msg>* bcast) noexcept
        : msgs_(msgs), stamps_(stamps), peer_(peer), bcast_(bcast), mark_(mark),
          degree_(degree) {}

    [[nodiscard]] iterator begin() const noexcept { return iterator(this, 0); }
    [[nodiscard]] iterator end() const noexcept { return iterator(this, degree_); }

    // Number of delivered messages. O(degree) stamp gather on first call,
    // cached afterwards (iteration is O(degree) anyway).
    [[nodiscard]] std::size_t size() const noexcept {
        if (count_ == unknown) {
            std::uint32_t c = 0;
            for (port_id p = 0; p < degree_; ++p) {
                c += stamps_[peer_[p]] == mark_ ? 1 : 0;
            }
            count_ = c;
        }
        return count_;
    }
    [[nodiscard]] bool empty() const noexcept {
        if (count_ != unknown) return count_ == 0;
        for (port_id p = 0; p < degree_; ++p) {
            if (stamps_[peer_[p]] == mark_) return false;
        }
        count_ = 0;
        return true;
    }

private:
    static constexpr std::uint32_t unknown = 0xffffffffu;

    // The payload of live slot s: its owner's broadcast, else its own.
    [[nodiscard]] const Msg& payload(std::uint32_t s) const noexcept {
        if (bcast_ != nullptr) {
            const node_id u = bcast_->owner[s];
            if (bcast_->stamps[u] == mark_) return bcast_->msgs[u];
        }
        return msgs_[s];
    }

    const Msg* msgs_ = nullptr;
    const std::uint32_t* stamps_ = nullptr;
    const std::uint32_t* peer_ = nullptr;
    const broadcast_payloads<Msg>* bcast_ = nullptr;
    std::uint32_t mark_ = 0;
    port_id degree_ = 0;
    mutable std::uint32_t count_ = unknown;
};

// --- intra-instance parallelism ---------------------------------------------
//
// engine<P>::step() can shard its node loop over a thread pool. The
// single-writer slot layout plus per-node RNG streams make the sharded
// round bitwise-identical to the serial one, so this is purely a
// wall-clock knob for large instances — orthogonal to the runner's
// repetition-level `--jobs`. The ambient (thread-local) default lets the
// ScenarioRunner plumb `--node-jobs` to engines constructed deep inside
// the algorithm drivers without threading a parameter through every one.

struct engine_parallelism {
    thread_pool* pool = nullptr;  // borrowed; nullptr => engine owns workers
    std::size_t node_jobs = 1;    // shard count; <= 1 means serial
};

[[nodiscard]] inline engine_parallelism& ambient_engine_parallelism() noexcept {
    thread_local engine_parallelism cfg;
    return cfg;
}

// RAII: sets the ambient default for engines constructed in this scope
// (on this thread), restoring the previous value on exit.
class scoped_engine_parallelism {
public:
    explicit scoped_engine_parallelism(engine_parallelism next) noexcept
        : prev_(ambient_engine_parallelism()) {
        ambient_engine_parallelism() = next;
    }
    ~scoped_engine_parallelism() { ambient_engine_parallelism() = prev_; }
    scoped_engine_parallelism(const scoped_engine_parallelism&) = delete;
    scoped_engine_parallelism& operator=(const scoped_engine_parallelism&) = delete;

private:
    engine_parallelism prev_;
};

namespace detail {
// Per-round (per-shard when rounds are sharded) cost accumulator; the
// engine flushes it into sim_metrics once per round so the send hot path
// never touches the phase map.
struct engine_round_acc {
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    std::uint64_t max_frag = 1;
    std::uint64_t node_steps = 0;
    std::size_t newly_halted = 0;
    bool broadcast = false;  // some node called send_all
    std::exception_ptr error;
};

// What one shard of a round files for the next round's candidates (see
// the engine's wake-calendar comment). Each shard writes only its own
// lists; the engine reads them serially, in shard order, between rounds.
// Cache-line aligned so adjacent shards' vector headers do not
// false-share.
struct alignas(64) wake_lists {
    std::vector<node_id> awake;      // live, no future hint (ascending)
    std::vector<node_id> receivers;  // reached by this round's sends
    std::vector<node_id> rehint;     // calendar entry to set or drop
};
}  // namespace detail

template <congest_message Msg>
class node_ctx {
public:
    [[nodiscard]] std::size_t degree() const noexcept { return degree_; }
    [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
    [[nodiscard]] xoshiro256ss& rng() noexcept { return *rng_; }

    // Sends `m` through local port `p` (0-based). At most one send per
    // port per round (CONGEST); violations throw anole::error in Debug
    // builds and are undefined in Release (see congest_guard_checks).
    //
    // Fully inline: a send is a stamp store plus a message store into the
    // node's own contiguous out-slots — no engine round-trip, no table
    // lookup, no scattered write — with cost counters kept right here in
    // the (stack-hot) context and folded into the round totals after
    // on_round returns.
    //
    // An lvalue is copy-assigned into the slot, so a slot whose payload
    // owns heap buffers keeps their capacity from round to round.
    void send(port_id p, const Msg& m) {
        stage(p, m.bit_size());
        out_msg_[p] = m;
    }
    void send(port_id p, Msg&& m) {
        stage(p, m.bit_size());
        out_msg_[p] = std::move(m);
    }

    // Sends `m` on every port: costs exactly what `for p: send(p, m)`
    // costs, but stores the payload once (see the engine's header comment
    // for the contract). At most one send_all per round, and no send()
    // in the same round; violations throw in Debug builds.
    void send_all(const Msg& m) {
        if constexpr (congest_guard_checks) {
            require(*out_bstamp_ != stamp_, "CONGEST violation: send_all twice in a round");
            for (port_id p = 0; p < degree_; ++p) {
                require(out_stamp_[p] != stamp_,
                        "CONGEST violation: send_all after send in a round");
            }
        }
        *out_bstamp_ = stamp_;
        if (degree_ == 0) return;
        charge(m.bit_size(), degree_);
        std::fill_n(out_stamp_, degree_, stamp_);
        *out_bmsg_ = m;
        broadcast_ = true;
    }

    // Marks this node permanently finished; it is never stepped again.
    void halt() noexcept { halted_flag_ = true; }
    [[nodiscard]] bool halted() const noexcept { return halted_flag_; }

    // Wake hint (see the engine's header comment): do not step this node
    // before round r unless mail arrives. Sticky until overwritten;
    // sleep_until(0) restores the every-round default.
    void sleep_until(std::uint64_t r) noexcept {
        *wake_ = r;
        hinted_ = true;
    }

private:
    template <class P>
    friend class engine;

    // The guards, the charge and the stamp of one send on port p.
    void stage(port_id p, std::size_t bits) {
        if constexpr (congest_guard_checks) {
            require(p < degree_, "node_ctx::send: port out of range");
        }
        if constexpr (congest_guard_checks) {
            require(out_stamp_[p] != stamp_, "CONGEST violation: double send on port");
        }
        charge(bits, 1);
        out_stamp_[p] = stamp_;
    }

    // Tallies `count` messages of `bits` each against the budget.
    void charge(std::size_t bits, std::size_t count) {
        if (bits > budget_bits_) [[unlikely]] {
            // Oversize: reject (strict) or charge fragmentation rounds.
            // Fitting messages — the designed-for case — skip the division.
            if (budget_mode_ == budget_mode::strict) {
                require(false, "CONGEST violation: message of " +
                                   std::to_string(bits) +
                                   " bits exceeds per-round budget of " +
                                   std::to_string(budget_bits_));
            }
            if (budget_mode_ == budget_mode::fragment) {
                const std::uint64_t frag = (bits + budget_bits_ - 1) / budget_bits_;
                if (frag > max_frag_) max_frag_ = frag;
            }
        }
        messages_ += count;
        bits_ += static_cast<std::uint64_t>(bits) * count;
    }

    std::size_t degree_ = 0;
    std::uint64_t round_ = 0;
    xoshiro256ss* rng_ = nullptr;
    // Staging: this node's contiguous out-slot ranges in the next round's
    // flat buffers (see the engine's transport comment).
    std::uint32_t* out_stamp_ = nullptr;
    Msg* out_msg_ = nullptr;
    // This node's entries of the next round's per-node broadcast arrays.
    std::uint32_t* out_bstamp_ = nullptr;
    Msg* out_bmsg_ = nullptr;
    std::uint32_t stamp_ = 0;
    std::uint64_t* wake_ = nullptr;  // this node's entry of the engine's hints
    std::uint64_t budget_bits_ = 0;
    budget_mode budget_mode_ = budget_mode::count_only;
    // Per-node cost counters, folded into the round accumulator by the
    // engine after on_round.
    std::uint64_t messages_ = 0;
    std::uint64_t bits_ = 0;
    std::uint64_t max_frag_ = 1;
    bool broadcast_ = false;
    bool hinted_ = false;  // sleep_until was called
    bool halted_flag_ = false;
};

template <class P>
class engine {
    using round_acc = detail::engine_round_acc;

public:
    using message_type = typename P::message_type;
    static_assert(congest_message<message_type>);

    // The engine references (not copies) the graph; keep it alive.
    engine(const graph& g, std::uint64_t seed, congest_budget budget = {})
        : g_(g), budget_(budget), budget_bits_(budget.resolve(g.num_nodes())),
          par_(ambient_engine_parallelism()), cal_(g.num_nodes()) {
        const std::size_t n = g_.num_nodes();
        slot_base_.resize(n + 1, 0);
        for (node_id u = 0; u < n; ++u) slot_base_[u + 1] = slot_base_[u] + g_.degree(u);
        const std::size_t slots = slot_base_[n];
        require(slots < 0xffffffffull, "engine: > 2^32 directed edges unsupported");
        cur_msg_.resize(slots);
        nxt_msg_.resize(slots);
        cur_stamp_.assign(slots, 0);
        nxt_stamp_.assign(slots, 0);
        // Peer slot per directed edge: where the other end of (u, p)
        // stages its messages. Precomputed so inbox gathers are one table
        // load instead of neighbor + reverse-port + offset arithmetic.
        // (The map is an involution: peer[peer[s]] == s.)
        peer_slot_.resize(slots);
        slot_owner_.resize(slots);
        for (node_id u = 0; u < n; ++u) {
            const auto deg = static_cast<port_id>(g_.degree(u));
            for (port_id p = 0; p < deg; ++p) {
                peer_slot_[slot_base_[u] + p] = static_cast<std::uint32_t>(
                    slot_base_[g_.neighbor(u, p)] + g_.reverse_port(u, p));
                slot_owner_[slot_base_[u] + p] = u;
            }
        }
        cur_bmsg_.resize(n);
        nxt_bmsg_.resize(n);
        cur_bstamp_.assign(n, 0);
        nxt_bstamp_.assign(n, 0);
        rngs_.reserve(n);
        for (node_id u = 0; u < n; ++u) rngs_.emplace_back(derive_seed(seed, u, 0xA0CE));
        halted_.assign(n, 0);
        wake_.assign(n, 0);
        all_nodes_.resize(n);
        std::iota(all_nodes_.begin(), all_nodes_.end(), node_id{0});
        cand_tag_.assign(n, 0);
        present_.assign(n, 1);
        crashed_.assign(n, 0);
        present_count_ = n;
    }

    engine(const engine&) = delete;
    engine& operator=(const engine&) = delete;

    // Overrides the ambient parallelism for this engine: shard rounds
    // `node_jobs` ways over `pool` (nullptr = engine-owned workers).
    void set_parallelism(thread_pool* pool, std::size_t node_jobs) {
        par_.pool = pool;
        par_.node_jobs = node_jobs;
        owned_pool_.reset();
    }
    [[nodiscard]] std::size_t node_jobs() const noexcept { return par_.node_jobs; }

    // Attaches the dynamic-network adversary (sim/dynamics.h). Must be
    // called before the first step(); the whole event schedule is a pure
    // function of (spec, run_seed), applied in a serial pre-round pass so
    // sharded rounds stay bitwise-identical to serial ones.
    void set_dynamics(const dynamics_spec& spec, std::uint64_t run_seed) {
        require(round_ == 0, "engine::set_dynamics: call before the first round");
        if (spec.enabled()) {
            dyn_ = std::make_unique<dynamics_state>(g_, spec, run_seed);
        } else {
            dyn_.reset();
        }
    }
    [[nodiscard]] const dynamics_state* dynamics() const noexcept { return dyn_.get(); }

    // Constructs the per-node protocol instances: factory(node_index) -> P.
    // The index is for construction-time parameters only; conforming
    // protocols never branch on identity (see the permuted-port tests).
    // The factory is retained: membership churn respawns a fresh instance
    // when a departed node rejoins.
    template <class Factory>
    void spawn(Factory&& factory) {
        require(procs_.empty(), "engine::spawn: already spawned");
        factory_ = std::function<P(std::size_t)>(std::forward<Factory>(factory));
        procs_.reserve(g_.num_nodes());
        for (node_id u = 0; u < g_.num_nodes(); ++u) {
            procs_.push_back(factory_(static_cast<std::size_t>(u)));
        }
    }

    // Installs the per-node protocol-status probe the adaptive adversary
    // (and the recovery oracles) observe. Drivers translate their own
    // observers into node_status; the probe is only consulted in the
    // serial pre-round pass, never from sharded rounds.
    void set_status_probe(std::function<node_status(std::size_t)> probe) {
        probe_ = std::move(probe);
    }

    // --- running ---

    void run_rounds(std::uint64_t k) {
        for (std::uint64_t i = 0; i < k; ++i) step();
    }

    // Runs until every present node halted; returns rounds executed.
    // Throws if max_rounds is exceeded, or with a `no_live_nodes` verdict
    // if the whole membership departed.
    std::uint64_t run_until_halted(std::uint64_t max_rounds) {
        return run_until(
            [this] { return present_count_ > 0 && halted_count_ == present_count_; },
            max_rounds);
    }

    // Runs until pred() (checked before each round); returns rounds run.
    template <class Pred>
    std::uint64_t run_until(Pred&& pred, std::uint64_t max_rounds) {
        std::uint64_t done = 0;
        while (!pred()) {
            require(done < max_rounds, "engine::run_until: exceeded max_rounds");
            // Once no live node remains (every present node halted —
            // protocol halts plus crashes — or everyone left), protocol
            // state is frozen: further rounds can never satisfy the
            // predicate. Fail now instead of spinning to max_rounds —
            // under crash/leave faults this is what turns a dead network
            // into a bounded verdict instead of a multi-million-round
            // spin.
            require(live_count() > 0,
                    "engine::run_until: no_live_nodes — every node halted, crashed "
                    "or left without satisfying the predicate");
            step();
            ++done;
        }
        return done;
    }

    // One synchronous round.
    void step() {
        require(!procs_.empty(), "engine::step: spawn first");
        // 32-bit stamps bound the round count; generous next to the
        // largest budget in the tree (revocable's 3e7) but cheap to keep
        // honest.
        require(round_ < 0xfffffffdull, "engine::step: stamp space exhausted");
        if (dyn_) apply_dynamics();
        // Receivers and awake nodes are filed only while some node sleeps
        // on a future hint: protocols that never hint file nothing.
        const bool record = !cal_.empty();
        const std::vector<node_id>& cand = plan_candidates();

        round_acc total;
        try {
            run_shards(cand, record, total);
        } catch (...) {
            // Mid-round failure (e.g. a strict-budget violation): nodes
            // that halted earlier this round already have their flag set
            // but their deferred count update never ran. Recount (among
            // present nodes — halted_count_'s domain) so it stays
            // consistent for callers that inspect the engine after
            // catching the error.
            std::size_t halted = 0;
            for (node_id u = 0; u < g_.num_nodes(); ++u) {
                if (present_[u] && halted_[u]) ++halted;
            }
            halted_count_ = halted;
            // The round's filings are incomplete: drop them, rebuild the
            // calendar from the hints and visit every node next round.
            for (auto& l : lists_) {
                l.awake.clear();
                l.receivers.clear();
                l.rehint.clear();
            }
            for (node_id u = 0; u < g_.num_nodes(); ++u) refile(u);
            listed_ = false;
            throw;
        }

        for (auto& l : lists_) {
            for (const node_id u : l.rehint) refile(u);
            l.rehint.clear();
        }
        listed_ = record;
        halted_count_ += total.newly_halted;
        node_steps_ += total.node_steps;
        std::swap(cur_msg_, nxt_msg_);
        std::swap(cur_stamp_, nxt_stamp_);
        std::swap(cur_bmsg_, nxt_bmsg_);
        std::swap(cur_bstamp_, nxt_bstamp_);
        bcast_ = {cur_bmsg_.data(), cur_bstamp_.data(), slot_owner_.data()};
        cur_broadcast_ = total.broadcast;
        metrics_.count_messages(total.messages, total.bits);
        metrics_.count_round(total.max_frag);
        ++round_;
    }

private:
    // The serial pre-round adversary pass (see sim/dynamics.h), in the
    // fixed phase order trace record/replay relies on: re-wires ports
    // (relocating in-flight payloads alongside their slots, so the
    // peer_slot_ involution and physical delivery stay exact), applies
    // membership churn, runs the adaptive strategy against a fresh status
    // snapshot, kills messages on down/lossy edges, and folds crashes
    // into the halted set. Runs before shards fork; nothing here touches
    // node RNG streams.
    void apply_dynamics() {
        const auto mark = static_cast<std::uint32_t>(round_ + 1);
        const auto& moves = dyn_->plan_rewire(round_, peer_slot_, halted_, present_);
        if (!moves.empty()) {
            // Gather payloads at old slots, then scatter to new ones —
            // cycles in the slot permutation make in-place moves unsafe.
            move_msg_.clear();
            move_stamp_.clear();
            for (const auto& [src, dst] : moves) {
                move_msg_.push_back(std::move(cur_msg_[src]));
                move_stamp_.push_back(cur_stamp_[src]);
            }
            for (std::size_t i = 0; i < moves.size(); ++i) {
                cur_msg_[moves[i].second] = std::move(move_msg_[i]);
                cur_stamp_[moves[i].second] = move_stamp_[i];
            }
        }
        for (const membership_event& ev :
             dyn_->plan_membership(round_, mark, halted_, present_, cur_stamp_)) {
            if (ev.join) {
                // The node reattaches on its footprint edges with a fresh
                // protocol instance; its halted contribution was already
                // removed at departure, so only the flags reset here.
                present_[ev.u] = 1;
                ++present_count_;
                halted_[ev.u] = 0;
                crashed_[ev.u] = 0;
                respawn(ev.u);
            } else {
                present_[ev.u] = 0;
                --present_count_;
                if (halted_[ev.u]) --halted_count_;
            }
        }
        if (dyn_->wants_status()) {
            const std::size_t n = g_.num_nodes();
            decided_flags_.assign(n, 0);
            leader_flags_.assign(n, 0);
            if (probe_) {
                for (node_id u = 0; u < n; ++u) {
                    if (!present_[u]) continue;
                    const node_status st = probe_(static_cast<std::size_t>(u));
                    decided_flags_[u] = st.decided ? 1 : 0;
                    leader_flags_[u] = st.leader ? 1 : 0;
                }
            }
        }
        for (const node_id u : dyn_->plan_adaptive(round_, mark, cur_stamp_, halted_,
                                                   present_, decided_flags_,
                                                   leader_flags_)) {
            halted_[u] = 1;  // assassination: a crash, permanently silent
            crashed_[u] = 1;
            ++halted_count_;
        }
        dyn_->apply_message_faults(round_, mark, cur_stamp_);
        for (const node_id u : dyn_->plan_node_faults(round_, halted_, present_)) {
            halted_[u] = 1;  // crash: permanently silent, counts as halted
            crashed_[u] = 1;
            ++halted_count_;
        }
    }

    // Replaces u's protocol instance with a freshly constructed one (its
    // RNG stream continues — streams are per node index, not per
    // incarnation, so determinism is unaffected), clears its wake hint and
    // makes it a candidate of this round.
    void respawn(node_id u) {
        wake_[u] = 0;
        cal_.erase(u);
        rejoined_.push_back(u);
        if constexpr (std::is_move_assignable_v<P>) {
            procs_[u] = factory_(static_cast<std::size_t>(u));
        } else {
            std::destroy_at(&procs_[u]);
            std::construct_at(&procs_[u], factory_(static_cast<std::size_t>(u)));
        }
    }

    // This round's candidates, in ascending node order, consuming what
    // the previous round filed. Every node, unless the previous round
    // recorded; then the nodes it left awake, the nodes whose calendar
    // entry comes due now, the receivers of its sends and the nodes that
    // rejoined in this round's dynamics pass. A superset of the nodes the
    // round steps: the per-node predicate in process_range decides.
    const std::vector<node_id>& plan_candidates() {
        if (!listed_) {
            cal_.pop_due(round_, [](node_id) {});  // visited anyway
            rejoined_.clear();
            return all_nodes_;
        }
        const auto tag = static_cast<std::uint32_t>(round_ + 1);
        awake_.clear();
        extra_.clear();
        for (const auto& l : lists_) {
            for (const node_id u : l.awake) cand_tag_[u] = tag;
            awake_.insert(awake_.end(), l.awake.begin(), l.awake.end());
        }
        const auto add = [&](node_id u) {
            if (cand_tag_[u] == tag) return;
            cand_tag_[u] = tag;
            extra_.push_back(u);
        };
        cal_.pop_due(round_, add);
        for (auto& l : lists_) {
            for (const node_id u : l.receivers) add(u);
            l.awake.clear();
            l.receivers.clear();
        }
        for (const node_id u : rejoined_) add(u);
        rejoined_.clear();
        std::sort(extra_.begin(), extra_.end());
        cand_.resize(awake_.size() + extra_.size());
        std::merge(awake_.begin(), awake_.end(), extra_.begin(), extra_.end(), cand_.begin());
        return cand_;
    }

    // Files u in the calendar iff it is live and its hint lies beyond the
    // next round. Serial: between rounds only.
    void refile(node_id u) {
        if (present_[u] && !halted_[u] && wake_[u] > round_ + 1) {
            cal_.set(u, wake_[u]);
        } else {
            cal_.erase(u);
        }
    }

    // The body of one round: process the candidates in contiguous shards
    // and reduce their costs into `total`; throws propagate (first shard
    // wins in sharded mode).
    void run_shards(const std::vector<node_id>& cand, bool record, round_acc& total) {
        const std::size_t count = cand.size();
        const std::size_t shards =
            par_.node_jobs <= 1 ? 1 : std::min(par_.node_jobs, count);
        if (lists_.size() < std::max<std::size_t>(shards, 1)) {
            lists_.resize(std::max<std::size_t>(shards, 1));
        }
        if (shards <= 1) {
            process_range(cand.data(), count, record, total, lists_[0]);
        } else {
            accs_.clear();
            accs_.resize(shards);
            thread_pool& pool = shard_pool();
            pool.parallel_for(shards, [&](std::size_t s) {
                const std::size_t lo = count * s / shards;
                const std::size_t hi = count * (s + 1) / shards;
                // Accumulate on the worker's own stack; adjacent accs_
                // elements share cache lines, so writing them per node
                // would false-share across shards.
                round_acc local;
                try {
                    process_range(cand.data() + lo, hi - lo, record, local, lists_[s]);
                } catch (...) {
                    local.error = std::current_exception();
                }
                accs_[s] = std::move(local);
            });
            // Deterministic reduction in shard order; sums and max are
            // order-free, so this matches the serial totals exactly.
            for (const auto& a : accs_) {
                if (a.error) std::rethrow_exception(a.error);
                total.messages += a.messages;
                total.bits += a.bits;
                total.newly_halted += a.newly_halted;
                total.node_steps += a.node_steps;
                total.broadcast = total.broadcast || a.broadcast;
                if (a.max_frag > total.max_frag) total.max_frag = a.max_frag;
            }
        }
    }

public:
    // --- observation ---

    [[nodiscard]] P& node(std::size_t i) {
        require(i < procs_.size(), "engine::node: out of range");
        return procs_[i];
    }
    [[nodiscard]] const P& node(std::size_t i) const {
        require(i < procs_.size(), "engine::node: out of range");
        return procs_[i];
    }
    [[nodiscard]] std::size_t num_nodes() const noexcept { return g_.num_nodes(); }
    [[nodiscard]] const graph& topology() const noexcept { return g_; }
    [[nodiscard]] sim_metrics& metrics() noexcept { return metrics_; }
    [[nodiscard]] const sim_metrics& metrics() const noexcept { return metrics_; }
    [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
    // Halted among *present* nodes (protocol halts plus crashes).
    [[nodiscard]] std::size_t halted_count() const noexcept { return halted_count_; }
    // Membership view: present = currently part of the network; live =
    // present and not halted; crashed = silenced by a fault (still
    // present — a crashed node occupies its place, a departed one does
    // not).
    [[nodiscard]] std::size_t present_count() const noexcept { return present_count_; }
    [[nodiscard]] std::size_t live_count() const noexcept {
        return present_count_ - halted_count_;
    }
    [[nodiscard]] bool node_present(std::size_t u) const noexcept {
        return present_[u] != 0;
    }
    [[nodiscard]] bool node_crashed(std::size_t u) const noexcept {
        return crashed_[u] != 0;
    }
    [[nodiscard]] bool node_halted(std::size_t u) const noexcept {
        return halted_[u] != 0;
    }
    [[nodiscard]] std::uint64_t budget_bits() const noexcept { return budget_bits_; }
    // on_round calls executed so far: a deterministic work counter,
    // identical for every node_jobs value.
    [[nodiscard]] std::uint64_t node_steps() const noexcept { return node_steps_; }

    void set_phase(const std::string& name) { metrics_.begin_phase(name); }

private:
    // Runs on_round for the candidates cand[0, count) that the round
    // steps, staging sends and accumulating costs into `acc`, and files
    // each live candidate for the next round into `out`. In sharded
    // rounds each shard owns a disjoint run of candidates; all
    // cross-shard writes land in slots owned by exactly one (sender,
    // port) pair, and the filings in the shard's own lists, so shards
    // never contend. The only loop that calls on_round.
    void process_range(const node_id* cand, std::size_t count, bool record, round_acc& acc,
                       detail::wake_lists& out) {
        const auto mark = static_cast<std::uint32_t>(round_ + 1);
        const auto stamp = static_cast<std::uint32_t>(round_ + 2);
        const std::uint64_t next = round_ + 1;
        // Null unless some sender broadcast last round, which keeps the
        // per-port protocols' gathers free of the owner lookup.
        const broadcast_payloads<message_type>* bcast = cur_broadcast_ ? &bcast_ : nullptr;
        for (std::size_t i = 0; i < count; ++i) {
            const node_id u = cand[i];
            if (halted_[u] || !present_[u]) {
                if (record && cal_.key(u) != 0) out.rehint.push_back(u);
                continue;
            }
            const std::size_t base = slot_base_[u];
            const std::size_t degree = g_.degree(u);
            // Sleeping nodes skip the round entirely; messages delivered
            // to them this round expire unread (stamps only grow).
            // asleep() is read-only, so the shard stays race-free. Wake
            // hint: a node sleeping on one runs only when mail is live,
            // tested before the inbox is built.
            if (!(dyn_ && dyn_->asleep(u, round_)) &&
                (wake_[u] <= round_ || has_mail(base, degree, mark))) {
                const inbox_view<message_type> inbox{
                    cur_msg_.data(), cur_stamp_.data(), peer_slot_.data() + base, mark,
                    static_cast<port_id>(degree), bcast};
                ++acc.node_steps;
                node_ctx<message_type> ctx;
                ctx.degree_ = degree;
                ctx.round_ = round_;
                ctx.rng_ = &rngs_[u];
                ctx.out_stamp_ = nxt_stamp_.data() + base;
                ctx.out_msg_ = nxt_msg_.data() + base;
                ctx.out_bstamp_ = &nxt_bstamp_[u];
                ctx.out_bmsg_ = &nxt_bmsg_[u];
                ctx.stamp_ = stamp;
                ctx.wake_ = &wake_[u];
                ctx.budget_bits_ = budget_bits_;
                ctx.budget_mode_ = budget_.mode;
                procs_[u].on_round(ctx, inbox);
                acc.messages += ctx.messages_;
                acc.bits += ctx.bits_;
                if (ctx.max_frag_ > acc.max_frag) acc.max_frag = ctx.max_frag_;
                if (ctx.broadcast_) acc.broadcast = true;
                if (ctx.halted_flag_) {
                    halted_[u] = 1;
                    ++acc.newly_halted;
                    if (record && cal_.key(u) != 0) out.rehint.push_back(u);
                    continue;
                }
                if (record) {
                    if (ctx.messages_ != 0) file_receivers(base, degree, stamp, out);
                } else if (!ctx.hinted_) {
                    continue;
                }
            } else if (!record) {
                // Outside recording rounds no node holds a future hint
                // (the calendar is empty), so a skipped node files nothing.
                continue;
            }
            // u stays live: a future hint needs its calendar entry, any
            // other hint makes it a candidate of the next round.
            const std::uint64_t w = wake_[u];
            if (w > next) {
                if (cal_.key(u) != w) out.rehint.push_back(u);
            } else if (record) {
                if (cal_.key(u) != 0) out.rehint.push_back(u);
                out.awake.push_back(u);
            }
        }
    }

    // Files the receiver of every message the node whose slots start at
    // `base` staged this round. Rewiring only relabels ports, never the
    // node at the other end of an edge, so the receiver is exact even
    // when the next round's dynamics pass relocates the payload.
    void file_receivers(std::size_t base, std::size_t degree, std::uint32_t stamp,
                        detail::wake_lists& out) const {
        const std::uint32_t* staged = nxt_stamp_.data() + base;
        const std::uint32_t* peer = peer_slot_.data() + base;
        for (std::size_t p = 0; p < degree; ++p) {
            if (staged[p] == stamp) out.receivers.push_back(slot_owner_[peer[p]]);
        }
    }

    // True iff a message is live on one of the in-ports of the node whose
    // slots start at `base`.
    [[nodiscard]] bool has_mail(std::size_t base, std::size_t degree,
                                std::uint32_t mark) const noexcept {
        const std::uint32_t* peer = peer_slot_.data() + base;
        for (std::size_t p = 0; p < degree; ++p) {
            if (cur_stamp_[peer[p]] == mark) return true;
        }
        return false;
    }

    // The pool rounds are sharded over: the configured one, else an
    // engine-owned pool created on first parallel step.
    [[nodiscard]] thread_pool& shard_pool() {
        if (par_.pool != nullptr) return *par_.pool;
        if (!owned_pool_) owned_pool_ = std::make_unique<thread_pool>(par_.node_jobs);
        return *owned_pool_;
    }

    const graph& g_;
    congest_budget budget_;
    std::uint64_t budget_bits_;
    engine_parallelism par_;
    std::unique_ptr<thread_pool> owned_pool_;
    std::vector<std::size_t> slot_base_;  // n+1 CSR offsets into the 2m slots
    std::vector<std::uint32_t> peer_slot_;  // the reverse directed edge's slot
    std::vector<node_id> slot_owner_;       // static: the sender owning a slot
    // Flat slot transport: one message + one stamp per directed edge,
    // double-buffered and swapped each round. A slot is live iff its
    // stamp == round + 1.
    std::vector<message_type> cur_msg_, nxt_msg_;
    std::vector<std::uint32_t> cur_stamp_, nxt_stamp_;
    // Broadcast payloads (send_all): one message + one stamp per node,
    // double-buffered alongside the slots. A live slot whose owner's
    // stamp == round + 1 reads the owner's payload. cur_broadcast_ says
    // whether any node broadcast in the round being delivered; bcast_
    // points inboxes at the current arrays.
    std::vector<message_type> cur_bmsg_, nxt_bmsg_;
    std::vector<std::uint32_t> cur_bstamp_, nxt_bstamp_;
    broadcast_payloads<message_type> bcast_;
    bool cur_broadcast_ = false;
    std::vector<xoshiro256ss> rngs_;
    std::vector<P> procs_;
    std::function<P(std::size_t)> factory_;  // retained for membership respawns
    std::vector<char> halted_;
    // Wake hints: node u is not stepped before round wake_[u] unless it
    // has mail. Written only from u's own on_round (or a serial respawn).
    std::vector<std::uint64_t> wake_;
    // Wake calendar (see the header comment): entries for the nodes whose
    // hint lies beyond the next round, the shards' filings, and the
    // round's candidate list. listed_ says the previous round recorded,
    // so this round may visit a candidate list instead of every node.
    wake_calendar cal_;
    std::vector<detail::wake_lists> lists_;
    std::vector<node_id> all_nodes_;  // 0..n-1: the candidates of a full round
    std::vector<node_id> cand_, awake_, extra_;
    std::vector<node_id> rejoined_;   // respawned in this round's dynamics pass
    std::vector<std::uint32_t> cand_tag_;  // round + 1 once u is a candidate
    bool listed_ = false;
    std::vector<char> present_;  // 0 = departed (left the network)
    std::vector<char> crashed_;  // 1 = silenced by a crash fault
    // Status snapshot for the adaptive adversary, refreshed serially
    // pre-round when a strategy wants it (empty otherwise).
    std::function<node_status(std::size_t)> probe_;
    std::vector<char> decided_flags_, leader_flags_;
    std::vector<round_acc> accs_;  // reused shard accumulators
    std::unique_ptr<dynamics_state> dyn_;  // nullptr = static network
    // Reused gather buffers for relocating in-flight payloads on rewire.
    std::vector<message_type> move_msg_;
    std::vector<std::uint32_t> move_stamp_;
    std::size_t halted_count_ = 0;
    std::size_t present_count_ = 0;
    std::uint64_t node_steps_ = 0;
    std::uint64_t round_ = 0;
    sim_metrics metrics_;
};

}  // namespace anole
