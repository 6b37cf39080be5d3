#include "baseline/gilbert_le.h"

#include <algorithm>

namespace anole {

namespace {

// The first entry of an id-sorted vector whose id is not less than `id`.
template <class Vec, class Key>
auto seek(Vec& v, std::uint64_t id, Key key) {
    return std::lower_bound(v.begin(), v.end(), id,
                            [&](const auto& e, std::uint64_t x) { return key(e) < x; });
}

}  // namespace

void gilbert_node::forward_kill(crumb& c) {
    if (c.kill_sent) return;
    c.kill_sent = true;
    out_[c.from].kills.push_back(c.id);
    out_used_[c.from] = 1;
}

void gilbert_node::queue_kill(std::uint64_t id) {
    const auto it = seek(crumbs_, id, [](const crumb& c) { return c.id; });
    if (it != crumbs_.end() && it->id == id) forward_kill(*it);
}

void gilbert_node::on_round(node_ctx<gl_msg>& ctx, inbox_view<gl_msg> inbox) {
    if (!inited_) {
        inited_ = true;
        candidate_ = ctx.rng().bernoulli(p_->cand_prob());
        if (candidate_) {
            id_ = ctx.rng().range(1, p_->id_space());
            mark_max_ = id_;
            tokens_.emplace_back(id_, p_->tokens());
            crumbs_.push_back({id_, 0, true});  // own ID: kills terminate here
        }
        out_.resize(degree_);
        out_used_.assign(degree_, 0);
    }

    const std::uint64_t r = ctx.round();
    if (r >= total_rounds_) {
        leader_ = candidate_ && !killed_ && mark_max_ == id_;
        ctx.halt();
        return;
    }
    if (inbox.empty() && tokens_.empty()) return;  // idle fast path

    for (auto& m : out_) {
        m.walks.clear();
        m.kills.clear();
    }
    std::fill(out_used_.begin(), out_used_.end(), 0);

    // --- receive ---
    for (const auto& [port, msg] : inbox) {
        for (const auto& [wid, cnt] : msg.walks) {
            // Breadcrumb: first arrival port points back toward the
            // candidate (strictly earlier in time, hence acyclic).
            const auto c = seek(crumbs_, wid, [](const crumb& e) { return e.id; });
            if (c == crumbs_.end() || c->id != wid) crumbs_.insert(c, crumb{wid, port, false});
            if (wid > mark_max_) {
                // This territory is dominated: kill every weaker
                // candidate we hold a breadcrumb for.
                mark_max_ = wid;
                for (std::size_t i = 0; i < crumbs_.size() && crumbs_[i].id < wid; ++i) {
                    forward_kill(crumbs_[i]);
                }
            } else if (wid < mark_max_) {
                queue_kill(wid);  // token walked into stronger territory
            }
            // Tokens keep walking regardless.
            auto t = seek(tokens_, wid, [](const auto& e) { return e.first; });
            if (t == tokens_.end() || t->first != wid) t = tokens_.emplace(t, wid, 0);
            t->second += cnt;
        }
        for (std::uint64_t kid : msg.kills) {
            if (candidate_ && kid == id_) {
                killed_ = true;
            } else {
                queue_kill(kid);  // forward along the breadcrumb chain
            }
        }
    }
    if (candidate_ && mark_max_ > id_) killed_ = true;

    // --- move tokens (walk phase only; drain phase only forwards kills) ---
    if (r < walk_len_) {
        for (auto& [wid, cnt] : tokens_) {
            std::uint64_t staying = 0;
            for (std::uint64_t t = 0; t < cnt; ++t) {
                if (ctx.rng().bit()) {
                    const auto p = static_cast<port_id>(ctx.rng().below(degree_));
                    // One id's tokens are staged one after another, so its
                    // entry on a port, if any, is the last one.
                    auto& walks = out_[p].walks;
                    if (!walks.empty() && walks.back().first == wid) {
                        ++walks.back().second;
                    } else {
                        walks.emplace_back(wid, 1);
                    }
                    out_used_[p] = 1;
                } else {
                    ++staying;
                }
            }
            cnt = staying;
        }
        // Drop empty entries to keep the list small.
        std::erase_if(tokens_, [](const auto& t) { return t.second == 0; });
    } else {
        tokens_.clear();  // walk phase over; only kills continue
    }

    for (port_id p = 0; p < degree_; ++p) {
        if (out_used_[p]) ctx.send(p, out_[p]);
    }
}

gilbert_result run_gilbert(const graph& g, const gilbert_params& params,
                           std::uint64_t seed, congest_budget budget,
                           const dynamics_spec& dynamics) {
    params.validate();
    require(params.n == g.num_nodes(), "run_gilbert: params.n must equal graph size");

    engine<gilbert_node> eng(g, seed, budget);
    if (dynamics.enabled()) eng.set_dynamics(dynamics, seed);
    eng.spawn([&](std::size_t u) {
        return gilbert_node(g.degree(static_cast<node_id>(u)), params);
    });
    const auto probe = [&eng](std::size_t u) {
        const auto& nd = eng.node(u);
        node_status st;
        st.decided = nd.is_leader() || nd.killed();
        st.leader = nd.is_leader();
        st.own_id = nd.id();
        return st;
    };
    eng.set_status_probe(probe);
    eng.set_phase("gilbert");
    eng.run_rounds(params.total_rounds() + 1);

    gilbert_result res;
    res.rounds = eng.round();
    res.totals = eng.metrics().total();
    std::uint64_t max_cand = 0;
    for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
        if (!eng.node_present(u) || eng.node_crashed(u)) continue;
        const auto& nd = eng.node(u);
        if (nd.is_candidate()) {
            ++res.num_candidates;
            max_cand = std::max(max_cand, nd.id());
        }
        if (nd.is_leader()) {
            ++res.num_leaders;
            res.leader_id = nd.id();
        }
    }
    res.success = res.num_leaders == 1;
    res.max_candidate_won = res.success && res.leader_id == max_cand;
    res.oracle = run_oracle(eng, probe, {.round_cap = params.total_rounds() + 1});
    return res;
}

}  // namespace anole
