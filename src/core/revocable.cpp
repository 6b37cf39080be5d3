#include "core/revocable.h"

#include <algorithm>

namespace anole {

void revocable_node::on_round(node_ctx<rev_msg>& ctx, inbox_view<rev_msg> inbox) {
    if (!started_) {
        started_ = true;
        start_estimate(ctx);
        start_iteration(ctx);
        broadcast(ctx, /*with_potential=*/true);
        round_in_phase_ = 1;
        return;
    }

    if (phase_ == phase::diffuse) {
        apply_exchange(inbox, /*diffusion_update=*/true);
        if (round_in_phase_ < r_k_) {
            broadcast(ctx, /*with_potential=*/true);
            ++round_in_phase_;
        } else {
            // Final diffusion exchange applied: threshold alarm
            // (Algorithm 7 line 13), then the dissemination phase opens.
            if (!q_low_ && potential_above_tau()) alarm();
            phase_ = phase::disseminate;
            round_in_phase_ = 1;
            broadcast(ctx, /*with_potential=*/false);
        }
        return;
    }

    // Dissemination phase.
    apply_exchange(inbox, /*diffusion_update=*/false);
    if (round_in_phase_ < d_k_) {
        broadcast(ctx, /*with_potential=*/false);
        ++round_in_phase_;
        return;
    }

    // Iteration complete (Algorithm 6 lines 12-13).
    end_iteration();
    if (iter_ < f_k_) {
        start_iteration(ctx);
        broadcast(ctx, /*with_potential=*/true);
        round_in_phase_ = 1;
        return;
    }

    // Estimate complete: decision phase (Algorithm 6 lines 14-17), then
    // the next estimate begins immediately.
    decide(ctx);
    start_estimate(ctx);
    start_iteration(ctx);
    broadcast(ctx, /*with_potential=*/true);
    round_in_phase_ = 1;
}

void revocable_node::start_estimate(node_ctx<rev_msg>& ctx) {
    (void)ctx;
    k_ *= 2;
    f_k_ = p_->certification_iterations(k_);
    r_k_ = p_->diffusion_rounds(k_);
    d_k_ = p_->dissemination_rounds(k_);
    share_d_ = p_->share_denominator(k_);
    share_log2_ = p_->share_denominator_log2(k_);
    p_white_ = p_->p_white(k_);
    degree_in_bound_ = degree_ <= p_->degree_bound(k_);
    iter_ = 0;
    empty_count_ = 0;
    probing_count_ = 0;
}

void revocable_node::start_iteration(node_ctx<rev_msg>& ctx) {
    white_ = ctx.rng().bernoulli(p_white_);
    q_low_ = false;
    c_white_ = white_;  // Algorithm 7 line 2
    set_potential(!white_);
    phase_ = phase::diffuse;
    round_in_phase_ = 0;
}

// One pass over the inbox. In a probing diffusion round the potentials
// are folded in port order as they are read; an alarm anywhere in the
// inbox voids the update (alarm() resets the potential). The leader view
// is updated in both phases (Algorithm 7 lines 10-12 and 19-21), in port
// order.
void revocable_node::apply_exchange(inbox_view<rev_msg> inbox, bool diffusion_update) {
    if (diffusion_update && !q_low_ && degree_in_bound_) {
        // Algorithm 7 lines 7-9: probe only while nobody alarms.
        if (p_->exact_potentials) {
            diffuse_pass(inbox, diffuse_exact(pot_x_, inbox.size(), share_d_, share_log2_),
                         &rev_msg::pot_x);
        } else {
            diffuse_pass(inbox, diffuse_approx(pot_d_, inbox.size(), share_d_),
                         &rev_msg::pot_d);
        }
        return;
    }
    for (const auto& [port, msg] : inbox) {
        (void)port;
        if (!diffusion_update) {
            // Dissemination (Algorithm 7 lines 16-18).
            if (msg.q_low) q_low_ = true;
            if (msg.c_white) c_white_ = true;
        }
        if (msg.idldr != 0) consider_leader(msg.idldr, msg.kldr);
    }
    if (diffusion_update) alarm();
}

template <class Update, class Pot>
void revocable_node::diffuse_pass(inbox_view<rev_msg> inbox, Update upd,
                                  Pot rev_msg::*pot) {
    bool probing = true;
    for (const auto& [port, msg] : inbox) {
        (void)port;
        if (probing) {
            if (msg.q_low) {
                probing = false;
            } else {
                upd.add(msg.*pot);
            }
        }
        if (msg.idldr != 0) consider_leader(msg.idldr, msg.kldr);
    }
    if (probing) {
        upd.finish();
    } else {
        alarm();
    }
}

// Status low, potential back to the black start (Algorithm 7 lines 9, 13).
void revocable_node::alarm() {
    q_low_ = true;
    set_potential(true);
}

void revocable_node::set_potential(bool black) {
    if (p_->exact_potentials) {
        pot_x_ = black ? dyadic::one() : dyadic::zero();
    } else {
        pot_d_ = black ? 1.0 : 0.0;
    }
}

void revocable_node::broadcast(node_ctx<rev_msg>& ctx, bool with_potential) {
    rev_msg m;
    m.has_potential = with_potential;
    m.q_low = q_low_;
    m.c_white = c_white_;
    m.idldr = idldr_;
    m.kldr = kldr_;
    std::size_t bits = 2 + gamma0_bits(m.idldr) + gamma0_bits(m.kldr);
    if (with_potential) {
        if (p_->exact_potentials) {
            m.pot_x = pot_x_;
            bits += m.pot_x.wire_bits();
        } else {
            m.pot_d = pot_d_;
            bits += charged_potential_bits(round_in_phase_ + 1, share_log2_);
        }
    }
    m.charged = bits;
    ctx.send_all(m);
}

void revocable_node::end_iteration() {
    ++iter_;
    if (!c_white_) ++empty_count_;    // empty[i] = ¬c
    if (!q_low_) ++probing_count_;    // status[i] = q == probing
}

void revocable_node::decide(node_ctx<rev_msg>& ctx) {
    auto& tr = traces_[k_];
    tr.empty_iterations = empty_count_;
    tr.probing_iterations = probing_count_;
    tr.iterations = f_k_;
    // Algorithm 6 line 14: strict majority of white-free iterations, and
    // at least one probing iteration.
    if (id_ == 0 && 2 * empty_count_ > f_k_ && probing_count_ > 0) {
        id_ = ctx.rng().range(1, p_->id_range(k_));
        cert_ = k_;
        tr.chose_here = true;
        consider_leader(id_, cert_);
    }
    leader_ = id_ != 0 && idldr_ == id_ && kldr_ == cert_;  // line 17
}

void revocable_node::consider_leader(std::uint64_t cand_id, std::uint64_t cand_k) {
    const bool adopt =
        idldr_ == 0 || cand_k > kldr_ || (cand_k == kldr_ && cand_id < idldr_);
    if (!adopt) return;
    if (idldr_ != 0 && (idldr_ != cand_id || kldr_ != cand_k)) ++revocations_;
    idldr_ = cand_id;
    kldr_ = cand_k;
    leader_ = id_ != 0 && idldr_ == id_ && kldr_ == cert_;
}

bool revocable_node::potential_above_tau() const {
    const auto tau = p_->tau(k_);
    if (tau.num == 0) return !p_->exact_potentials ? pot_d_ > 0 : !pot_x_.is_zero();
    if (!p_->exact_potentials) {
        return pot_d_ > static_cast<double>(tau.num) / static_cast<double>(tau.den);
    }
    // pot > num/den  <=>  mant * den > num * 2^exp   (exact).
    bigint lhs = pot_x_.mantissa();
    lhs.mul_small(tau.den);
    bigint rhs(tau.num);
    rhs <<= pot_x_.exponent();
    return lhs > rhs;
}

// ---------------------------------------------------------------------------

revocable_result run_revocable(const graph& g, const revocable_params& params,
                               std::uint64_t seed, std::uint64_t max_rounds,
                               congest_budget budget, const dynamics_spec& dynamics) {
    params.validate();

    engine<revocable_node> eng(g, seed, budget);
    if (dynamics.enabled()) eng.set_dynamics(dynamics, seed);
    eng.spawn([&](std::size_t u) {
        return revocable_node(g.degree(static_cast<node_id>(u)), params);
    });
    const auto probe = [&eng](std::size_t u) {
        const auto& nd = eng.node(u);
        node_status st;
        st.decided = nd.id() != 0;
        st.leader = nd.leader();
        st.own_id = nd.id();
        st.own_cert = nd.certificate();
        st.view_id = nd.leader_id();
        st.view_cert = nd.leader_certificate();
        return st;
    };
    eng.set_status_probe(probe);

    // All convergence predicates quantify over *live* nodes only: a
    // crashed node's frozen view, or a departed node's slot, must not
    // block the survivors from reaching agreement (re-election after an
    // assassination is measured through exactly this).
    const std::size_t n = eng.num_nodes();
    auto live = [&](std::size_t u) -> bool {
        return eng.node_present(u) && !eng.node_crashed(u);
    };
    auto views_consistent = [&]() -> bool {
        bool any = false;
        std::uint64_t vid = 0, vk = 0;
        for (std::size_t u = 0; u < n; ++u) {
            if (!live(u)) continue;
            const auto& nd = eng.node(u);
            if (nd.id() == 0 || nd.leader_id() == 0) return false;
            if (!any) {
                any = true;
                vid = nd.leader_id();
                vk = nd.leader_certificate();
            } else if (nd.leader_id() != vid || nd.leader_certificate() != vk) {
                return false;
            }
        }
        return any;
    };
    auto past_cap = [&]() -> bool {
        if (params.k_cap == 0) return false;
        for (std::size_t u = 0; u < n; ++u) {
            if (live(u) && eng.node(u).estimate() <= params.k_cap) return false;
        }
        return true;
    };
    auto first_live_view = [&]() -> std::pair<std::uint64_t, std::uint64_t> {
        for (std::size_t u = 0; u < n; ++u) {
            if (live(u)) {
                return {eng.node(u).leader_id(), eng.node(u).leader_certificate()};
            }
        }
        return {0, 0};
    };

    revocable_result res;
    bool reached = false;
    try {
        eng.run_until([&] { return views_consistent() || past_cap(); }, max_rounds);
        reached = views_consistent();
    } catch (const error&) {
        reached = false;  // max_rounds exhausted: report what we have
    }

    res.stable_round = eng.round();
    const auto [view_id, view_k] =
        reached ? first_live_view() : std::pair<std::uint64_t, std::uint64_t>{0, 0};

    if (reached) {
        // Revocability check: once every node has chosen an ID and all
        // views agree, no undominated (ID, certificate) pair can still be
        // in flight, so views are provably final; we nevertheless run a
        // bounded verification window and assert they did not move. (A
        // full extra estimate would be the airtight check, but its cost
        // grows ~k^{4(2+ε)} in blind mode — the window is the documented
        // substitution.)
        const std::uint64_t extra =
            std::min<std::uint64_t>(res.stable_round / 2 + 1000, 200'000);
        eng.run_rounds(extra);
    }

    res.rounds = eng.round();
    res.totals = eng.metrics().total();
    res.congest_rounds = eng.metrics().total().congest_rounds;

    const auto [final_view_id, final_view_k] = first_live_view();
    bool all_same = true;
    std::size_t live_nodes = 0;
    for (std::size_t u = 0; u < n; ++u) {
        const auto& nd = eng.node(u);
        // Cost/trace aggregates cover every incarnation that ran,
        // including crashed nodes; correctness quantifiers below are
        // live-only.
        res.total_revocations += nd.revocations();
        res.final_estimate = std::max(res.final_estimate, nd.estimate());
        for (const auto& [k, tr] : nd.traces()) {
            auto& agg = res.traces[k];
            agg.empty_iterations += tr.empty_iterations;
            agg.probing_iterations += tr.probing_iterations;
            agg.iterations += tr.iterations;
            agg.chose_here = agg.chose_here || tr.chose_here;
        }
        if (!live(u)) continue;
        ++live_nodes;
        if (nd.leader()) {
            ++res.num_leaders;
            res.leader_id = nd.id();
            res.leader_certificate = nd.certificate();
        }
        if (nd.id() != 0) ++res.nodes_chose;
        if (nd.leader_id() != final_view_id || nd.leader_certificate() != final_view_k) {
            all_same = false;
        }
    }
    res.success = reached && all_same && res.num_leaders == 1 &&
                  res.nodes_chose == live_nodes && live_nodes > 0 &&
                  final_view_id == view_id && final_view_k == view_k;
    res.oracle = run_oracle(eng, probe, {.check_views = reached});
    return res;
}

}  // namespace anole
