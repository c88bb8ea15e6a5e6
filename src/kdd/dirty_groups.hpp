// KDD's dirty parity groups (Section III-D): the groups whose parity is
// stale because old pages with pending deltas sit in the cache.
//
// One table holds, per group, its old-page count and the request number at
// which it went stale, and threads every group on a list in last-write
// order. The cleaner picks its victims from the cold end: a group that is
// still being rewritten keeps its old pages (and the DAZ bases its next
// deltas diff against) while colder groups are destaged (WOW, Gill & Modha,
// FAST '05: choose destage victims by recency, issue them in disk order).
//
// The list is intrusive: each node lives in the hash map and links to its
// neighbours by pointer. Unordered-map nodes never move, so adding a page,
// touching a group and retiring a clean group are all O(1). Recency is
// DRAM-only state; a recovered cache rebuilds the table in census order.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/check.hpp"
#include "raid/layout.hpp"

namespace kdd {

class DirtyGroupTable {
 public:
  DirtyGroupTable() = default;
  DirtyGroupTable(const DirtyGroupTable&) = delete;
  DirtyGroupTable& operator=(const DirtyGroupTable&) = delete;

  bool empty() const { return groups_.empty(); }
  std::size_t size() const { return groups_.size(); }
  bool contains(GroupId g) const { return groups_.contains(g); }

  /// Old pages pending in `g` (0 when the group is clean).
  std::uint32_t old_pages(GroupId g) const {
    const auto it = groups_.find(g);
    return it == groups_.end() ? 0 : it->second.old_pages;
  }

  /// One more old page in `g`. A group that was clean joins at the hot end,
  /// stale since request `now`.
  void add_page(GroupId g, std::uint64_t now) {
    const auto [it, fresh] = groups_.try_emplace(g);
    Node& n = it->second;
    if (fresh) {
      n.group = g;
      n.stale_since = now;
      link_hot(n);
    }
    ++n.old_pages;
  }

  /// A delta was staged for `g`: it becomes the most recently written group.
  void touch(GroupId g) {
    const auto it = groups_.find(g);
    KDD_CHECK(it != groups_.end());
    Node& n = it->second;
    if (&n == hot_) return;
    unlink(n);
    link_hot(n);
  }

  /// One old page of `g` was repaired. Returns true when that was its last
  /// one: the group left the table and `*stale_since` holds the request
  /// number at which it went stale.
  bool remove_page(GroupId g, std::uint64_t* stale_since) {
    const auto it = groups_.find(g);
    KDD_CHECK(it != groups_.end() && it->second.old_pages > 0);
    Node& n = it->second;
    if (--n.old_pages > 0) return false;
    *stale_since = n.stale_since;
    unlink(n);
    groups_.erase(it);
    return true;
  }

  void clear() {
    groups_.clear();
    cold_ = hot_ = nullptr;
  }

  /// Calls `fn(g)` for each group from the least to the most recently
  /// written, until `fn` returns false.
  template <typename Fn>
  void visit_coldest_first(Fn&& fn) const {
    for (const Node* n = cold_; n != nullptr; n = n->hotter) {
      if (!fn(n->group)) return;
    }
  }

  /// The recency list threads every group exactly once. O(size).
  void check_invariants() const {
    std::size_t linked = 0;
    const Node* prev = nullptr;
    for (const Node* n = cold_; n != nullptr; n = n->hotter) {
      KDD_CHECK(n->colder == prev);
      KDD_CHECK(n->old_pages > 0);
      const auto it = groups_.find(n->group);
      KDD_CHECK(it != groups_.end() && &it->second == n);
      prev = n;
      ++linked;
    }
    KDD_CHECK(prev == hot_);
    KDD_CHECK(linked == groups_.size());
  }

 private:
  struct Node {
    GroupId group = 0;
    std::uint32_t old_pages = 0;
    std::uint64_t stale_since = 0;  ///< request# when the group went stale
    Node* colder = nullptr;
    Node* hotter = nullptr;
  };

  void link_hot(Node& n) {
    n.colder = hot_;
    n.hotter = nullptr;
    (hot_ != nullptr ? hot_->hotter : cold_) = &n;
    hot_ = &n;
  }

  void unlink(Node& n) {
    (n.colder != nullptr ? n.colder->hotter : cold_) = n.hotter;
    (n.hotter != nullptr ? n.hotter->colder : hot_) = n.colder;
  }

  std::unordered_map<GroupId, Node> groups_;
  Node* cold_ = nullptr;  ///< least recently written
  Node* hot_ = nullptr;   ///< most recently written
};

}  // namespace kdd
