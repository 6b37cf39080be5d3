// anole — potential diffusion (paper §5.2, the Avg core).
//
// The Revocable LE algorithm probes each network-size estimate k by
// *diffusing* node potentials: black nodes start at 1, white at 0, and in
// every round each node replaces its potential by
//
//     Φ ← Φ + Σ_{i∈N} Φ_i / D − |N|·Φ / D
//
// with share denominator D. The transition matrix is symmetric and doubly
// stochastic, so potentials converge to the uniform average ‖Φ₁‖/n
// (Lemma 3) at a rate governed by the chain's conductance (Lemma 4). The
// paper uses D = 2k^{1+ε}; we round D up to a power of two so *exact*
// (dyadic-rational) potentials stay exact — see revocable_params::
// share_denominator for why the analysis is preserved.
//
// Two arithmetic modes:
//   * exact — util/dyadic.h values; the conservation invariant
//     Σ Φ = const holds bit-for-bit and messages carry the true
//     (growing) encoding, transmitted bit-by-bit under CONGEST via the
//     fragmenting budget. Mantissas grow ~log2(D) bits per round — the
//     paper's own accounting ("each iteration i takes i·log(2k^{1+ε})
//     rounds") concedes this growth, so exact mode is for small round
//     counts (tests, E9 ablation).
//   * approx — double arithmetic for long sweeps; messages are *charged*
//     the paper's bit cost (1 + round·⌈log2 D⌉ bits) so time/bit
//     accounting still follows Theorem 3's model even though the payload
//     is a machine double.
//
// This header provides the shared update helpers plus a standalone
// diffusion-only protocol used by the Lemma 3/4 experiments (E9).
#pragma once

#include <cstdint>

#include "sim/engine.h"
#include "util/bit_codec.h"
#include "util/dyadic.h"

namespace anole {

// One diffusion update, applied in place with the incoming potentials
// supplied one at a time in arrival order:
//
//     pot <- (pot·(D − c) + Σ incoming) / D,   D = 2^log2_d,  c = |incoming|
//
// Construction scales pot by D − c, add() folds in one incoming potential,
// finish() divides by D. Revocable LE and diffusion_node both drive it
// straight from their inboxes in port order, so no per-round buffer is
// built and the double sum runs in the same order everywhere (dyadic sums
// are exact in any order). Requires c <= D (guaranteed by the degree alarm
// k^{1+ε} >= |N| and D >= 2k^{1+ε}).
class diffuse_exact {
public:
    diffuse_exact(dyadic& pot, std::size_t incoming, std::uint64_t d, std::size_t log2_d)
        : pot_(pot), log2_d_(log2_d) {
        pot_.mul_small(d - incoming);
    }
    void add(const dyadic& in) { pot_ += in; }
    void finish() { pot_.div_pow2(log2_d_); }

private:
    dyadic& pot_;
    std::size_t log2_d_;
};

// Same update in double arithmetic.
class diffuse_approx {
public:
    diffuse_approx(double& pot, std::size_t incoming, std::uint64_t d) : pot_(pot), d_(d) {
        pot_ *= static_cast<double>(d - incoming);
    }
    void add(double in) noexcept { pot_ += in; }
    void finish() noexcept { pot_ /= static_cast<double>(d_); }

private:
    double& pot_;
    std::uint64_t d_;
};

// The paper's charged wire size of a potential in diffusion round r
// (1-based) with share denominator 2^log2_d: the value is a dyadic with
// at most 1 + r·log2_d significant bits.
[[nodiscard]] inline std::size_t charged_potential_bits(std::uint64_t r,
                                                        std::size_t log2_d) noexcept {
    return 1 + static_cast<std::size_t>(r) * log2_d;
}

// ---------------------------------------------------------------------------
// Standalone diffusion protocol (E9: Lemmas 3-5 validation)
// ---------------------------------------------------------------------------

struct diff_msg {
    double pot_d = 0;
    dyadic pot_x;
    bool exact = false;
    std::uint64_t charged = 0;  // set by sender

    [[nodiscard]] std::size_t bit_size() const noexcept { return charged; }
};

// Runs `rounds` diffusion exchanges with denominator 2^log2_d, starting
// from a given potential; exposes the trajectory endpoint. The harness
// initializes node 0..n-1 with arbitrary starting potentials (e.g. the
// black/white pattern of the Revocable LE certification phase).
class diffusion_node {
public:
    using message_type = diff_msg;

    diffusion_node(std::size_t degree, double start, bool exact, std::size_t log2_d,
                   std::uint64_t rounds)
        : degree_(degree),
          exact_(exact),
          log2_d_(log2_d),
          rounds_(rounds),
          pot_d_(start),
          pot_x_(start >= 1.0 ? dyadic::one() : dyadic::zero()) {
        require(!exact || start == 0.0 || start == 1.0,
                "diffusion_node: exact mode starts from 0/1 potentials");
    }

    void on_round(node_ctx<diff_msg>& ctx, inbox_view<diff_msg> inbox) {
        const std::uint64_t d = std::uint64_t{1} << log2_d_;
        require(degree_ <= d, "diffusion_node: degree exceeds share denominator");
        if (ctx.round() > 0) {
            // Apply the exchange completed by last round's messages.
            if (exact_) {
                diffuse_exact upd(pot_x_, inbox.size(), d, log2_d_);
                for (const auto& [port, msg] : inbox) {
                    (void)port;
                    upd.add(msg.pot_x);
                }
                upd.finish();
            } else {
                diffuse_approx upd(pot_d_, inbox.size(), d);
                for (const auto& [port, msg] : inbox) {
                    (void)port;
                    upd.add(msg.pot_d);
                }
                upd.finish();
            }
        }
        if (ctx.round() >= rounds_) {
            ctx.halt();
            return;
        }
        diff_msg m;
        m.exact = exact_;
        if (exact_) {
            m.pot_x = pot_x_;
            m.charged = m.pot_x.wire_bits();
        } else {
            m.pot_d = pot_d_;
            m.charged = charged_potential_bits(ctx.round() + 1, log2_d_);
        }
        ctx.send_all(m);
    }

    [[nodiscard]] double potential() const noexcept {
        return exact_ ? pot_x_.to_double() : pot_d_;
    }
    [[nodiscard]] const dyadic& potential_exact() const noexcept { return pot_x_; }
    [[nodiscard]] bool exact() const noexcept { return exact_; }

private:
    std::size_t degree_;
    bool exact_;
    std::size_t log2_d_;
    std::uint64_t rounds_;
    double pot_d_;
    dyadic pot_x_;
};

}  // namespace anole
