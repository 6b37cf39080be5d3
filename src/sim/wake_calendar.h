// anole — the round engine's wake calendar.
//
// Holds at most one entry per node: the round its wake hint
// (node_ctx::sleep_until) names, for nodes whose hint lies in the future.
// An indexed binary min-heap keyed by that round, so the engine can pop
// the nodes due in a round in O(log n) each and move or drop a node's
// entry in place when it re-hints — never a second, stale entry.
// Memory is O(n) whatever the number of re-hints.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"

namespace anole {

class wake_calendar {
public:
    explicit wake_calendar(std::size_t n) : key_(n, 0), pos_(n, npos) {}

    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

    // The round u's entry wakes it at, or 0 when u has no entry.
    [[nodiscard]] std::uint64_t key(node_id u) const noexcept { return key_[u]; }

    // Files u to wake at round r (r ≥ 1), moving its entry if it has one.
    void set(node_id u, std::uint64_t r) {
        if (pos_[u] == npos) {
            pos_[u] = static_cast<std::uint32_t>(heap_.size());
            heap_.push_back(u);
            key_[u] = r;
            sift_up(pos_[u]);
            return;
        }
        const std::uint64_t old = key_[u];
        key_[u] = r;
        if (r < old) {
            sift_up(pos_[u]);
        } else {
            sift_down(pos_[u]);
        }
    }

    // Drops u's entry, if any.
    void erase(node_id u) {
        const std::uint32_t i = pos_[u];
        if (i == npos) return;
        key_[u] = 0;
        pos_[u] = npos;
        const node_id last = heap_.back();
        heap_.pop_back();
        if (last == u) return;
        place(i, last);
        sift_up(i);
        sift_down(pos_[last]);
    }

    // Removes every entry due by round r and calls f(u) for each.
    template <class F>
    void pop_due(std::uint64_t r, F&& f) {
        while (!heap_.empty() && key_[heap_.front()] <= r) {
            const node_id u = heap_.front();
            erase(u);
            f(u);
        }
    }

private:
    static constexpr std::uint32_t npos = std::numeric_limits<std::uint32_t>::max();

    void place(std::uint32_t i, node_id u) noexcept {
        heap_[i] = u;
        pos_[u] = i;
    }
    void sift_up(std::uint32_t i) noexcept {
        const node_id u = heap_[i];
        while (i > 0) {
            const std::uint32_t parent = (i - 1) / 2;
            if (key_[heap_[parent]] <= key_[u]) break;
            place(i, heap_[parent]);
            i = parent;
        }
        place(i, u);
    }
    void sift_down(std::uint32_t i) noexcept {
        const node_id u = heap_[i];
        const auto size = static_cast<std::uint32_t>(heap_.size());
        while (true) {
            std::uint32_t child = 2 * i + 1;
            if (child >= size) break;
            if (child + 1 < size && key_[heap_[child + 1]] < key_[heap_[child]]) ++child;
            if (key_[u] <= key_[heap_[child]]) break;
            place(i, heap_[child]);
            i = child;
        }
        place(i, u);
    }

    std::vector<node_id> heap_;         // nodes, ordered by key_
    std::vector<std::uint64_t> key_;    // per node: its entry's round, 0 = none
    std::vector<std::uint32_t> pos_;    // per node: index in heap_, npos = none
};

}  // namespace anole
