#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "overlay_harness.h"
#include "util/rng.h"

namespace mind {

class OverlayTestPeek {
 public:
  static BitCode& code(OverlayNode& n) { return n.code_; }
  static PeerTable& peers(OverlayNode& n) { return n.peers_; }
  static void PrunePeers(OverlayNode& n) { n.PrunePeers(); }
};

namespace {

struct AppMsg : Message {
  explicit AppMsg(int v) : value(v) {}
  int value;
  const char* TypeName() const override { return "AppMsg"; }
};

// ---------------------------------------------------------------- Join

TEST(OverlayJoinTest, FirstNodeOwnsEverything) {
  OverlayFleet fleet = BuildOverlay(1, {});
  EXPECT_TRUE(fleet[0].joined());
  EXPECT_EQ(fleet[0].code().length(), 0);
  EXPECT_TRUE(fleet.CodesFormCompleteCover());
}

TEST(OverlayJoinTest, TwoNodesSplitTheSpace) {
  OverlayFleet fleet = BuildOverlay(2, {});
  ASSERT_EQ(fleet.JoinedCount(), 2u);
  EXPECT_EQ(fleet[0].code().ToString(), "0");
  EXPECT_EQ(fleet[1].code().ToString(), "1");
  EXPECT_TRUE(fleet.CodesFormCompleteCover());
  // Each is the other's peer.
  EXPECT_TRUE(fleet[0].peers().count(1));
  EXPECT_TRUE(fleet[1].peers().count(0));
}

class OverlaySizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OverlaySizeTest, SequentialJoinsProduceCompleteBalancedCover) {
  const size_t n = GetParam();
  OverlayFleet fleet = BuildOverlay(n, {});
  ASSERT_EQ(fleet.JoinedCount(), n);
  EXPECT_TRUE(fleet.CodesFormCompleteCover());
  // Adler's join keeps the hypercube balanced w.h.p.; allow generous slack.
  double log2n = std::log2(static_cast<double>(n));
  EXPECT_LE(fleet.MaxCodeLength(), static_cast<int>(2 * log2n + 3));
}

TEST_P(OverlaySizeTest, ConcurrentJoinsAllComplete) {
  const size_t n = GetParam();
  OverlayFleet fleet = BuildOverlay(n, {}, /*concurrent=*/true);
  ASSERT_EQ(fleet.JoinedCount(), n) << "concurrent joins deadlocked or stalled";
  EXPECT_TRUE(fleet.CodesFormCompleteCover());
}

INSTANTIATE_TEST_SUITE_P(Sizes, OverlaySizeTest,
                         ::testing::Values(3, 8, 16, 34, 64));

TEST(OverlayJoinTest, ConcurrentJoinsSerializedWithoutDuplicateCodes) {
  OverlayFleet fleet = BuildOverlay(24, {}, /*concurrent=*/true, /*seed=*/99);
  ASSERT_EQ(fleet.JoinedCount(), 24u);
  std::set<std::string> codes;
  for (auto& node : fleet.nodes) codes.insert(node->code().ToString());
  EXPECT_EQ(codes.size(), 24u) << "duplicate vertex codes assigned";
}

TEST(OverlayJoinTest, PeerTablesHaveEntryPerBitPosition) {
  OverlayFleet fleet = BuildOverlay(16, {});
  ASSERT_EQ(fleet.JoinedCount(), 16u);
  for (auto& node : fleet.nodes) {
    const BitCode& code = node->code();
    for (int i = 0; i < code.length(); ++i) {
      bool have = false;
      for (const auto& [peer, pcode] : node->peers()) {
        if (code.CommonPrefixLen(pcode) == i) {
          have = true;
          break;
        }
      }
      EXPECT_TRUE(have) << "node " << node->id() << " code " << code.ToString()
                        << " lacks a peer differing first at bit " << i;
    }
  }
}

// ---------------------------------------------------------------- Pruning

// PrunePeers as first written, the reference for the one-pass version:
// bucket the peers by common-prefix level, then keep the exact sibling and
// the `quota` lowest-id other peers of each level.
PeerTable PruneOracle(const BitCode& code, const PeerTable& peers, int quota) {
  if (static_cast<int>(peers.size()) <= quota * (code.length() + 1)) {
    return peers;
  }
  std::map<int, std::vector<NodeId>> by_level;
  for (const auto& [peer, pcode] : peers) {
    by_level[code.CommonPrefixLen(pcode)].push_back(peer);
  }
  PeerTable kept;
  for (auto& [level, ids] : by_level) {
    std::sort(ids.begin(), ids.end());
    for (NodeId peer : ids) {
      if (code.length() > 0 && peers.at(peer) == code.Sibling()) {
        kept[peer] = peers.at(peer);
      }
    }
    int left = quota;
    for (NodeId peer : ids) {
      if (kept.count(peer)) continue;
      if (left <= 0) break;
      kept[peer] = peers.at(peer);
      --left;
    }
  }
  return kept;
}

// A random code whose common prefix with `code` is `level` bits long: it
// flips bit `level` and may extend past it, or, at level == code.length(),
// extends `code` itself.
BitCode CodeAtLevel(const BitCode& code, int level, Rng* rng) {
  BitCode c = code.Prefix(level);
  if (level < code.length()) c.PushBack(1 - code.bit(level));
  const int extra = static_cast<int>(rng->Uniform(3)) +
                    (level == code.length() ? 1 : 0);
  for (int i = 0; i < extra; ++i) {
    c.PushBack(static_cast<int>(rng->Uniform(2)));
  }
  return c;
}

std::vector<std::pair<NodeId, std::string>> Entries(const PeerTable& peers) {
  std::vector<std::pair<NodeId, std::string>> out;
  for (const auto& [peer, pcode] : peers) {
    out.emplace_back(peer, pcode.ToString());
  }
  return out;
}

TEST(OverlayPruneTest, OnePassKeepsWhatTheBucketedPruneKept) {
  constexpr NodeId kSiblingId = 1000;
  size_t pruned = 0;
  for (int quota : {1, 2, 3}) {
    OverlayOptions opts;
    opts.max_peers_per_level = quota;
    OverlayFleet fleet = BuildOverlay(1, opts);
    OverlayNode& node = fleet[0];
    Rng rng(static_cast<uint64_t>(29 + quota));
    for (int trial = 0; trial < 200; ++trial) {
      const int len = 1 + static_cast<int>(rng.Uniform(8));
      const BitCode code = BitCode::FromBits(rng.Next(), len);
      PeerTable peers;
      // Several peers per level, ours extended included; a level-(len - 1)
      // draw with no extension is the sibling itself.
      const uint64_t n = rng.Uniform(static_cast<uint64_t>(6 * (len + 1)));
      for (uint64_t i = 0; i < n; ++i) {
        const int level = static_cast<int>(rng.Uniform(len + 1));
        peers[static_cast<NodeId>(1 + rng.Uniform(500))] =
            CodeAtLevel(code, level, &rng);
      }
      // The sibling past its level's quota: `quota` lower-id peers of its
      // level come first in the ascending pass.
      for (int i = 0; i < quota; ++i) {
        peers[static_cast<NodeId>(600 + i)] =
            code.Sibling().Child(static_cast<int>(rng.Uniform(2)));
      }
      peers[kSiblingId] = code.Sibling();

      const PeerTable want = PruneOracle(code, peers, quota);
      if (want.size() < peers.size()) ++pruned;
      OverlayTestPeek::code(node) = code;
      OverlayTestPeek::peers(node) = peers;
      OverlayTestPeek::PrunePeers(node);
      EXPECT_EQ(Entries(node.peers()), Entries(want))
          << "quota " << quota << " code " << code.ToString();
      EXPECT_EQ(node.peers().count(kSiblingId), 1u);
    }
  }
  EXPECT_GT(pruned, 300u) << "too few tables exceeded the quota";
}

// ---------------------------------------------------------------- Routing

TEST(OverlayRouteTest, DeliversToOwner) {
  OverlayFleet fleet = BuildOverlay(16, {});
  ASSERT_EQ(fleet.JoinedCount(), 16u);
  Rng rng(5);
  int delivered = 0;
  std::vector<int> hop_counts;
  for (auto& node : fleet.nodes) {
    node->set_on_deliver([&, id = node->id()](NodeId, const MessagePtr& inner,
                                              int hops) {
      auto* m = dynamic_cast<AppMsg*>(inner.get());
      ASSERT_NE(m, nullptr);
      ++delivered;
      hop_counts.push_back(hops);
      // Delivered at the true owner.
      // (value encodes the expected owner index)
      EXPECT_EQ(id, m->value);
    });
  }
  const int kSends = 200;
  for (int i = 0; i < kSends; ++i) {
    BitCode target = BitCode::FromBits(rng.Next(), 64);
    int owner = fleet.OwnerOf(target);
    ASSERT_GE(owner, 0);
    size_t src = rng.Uniform(fleet.size());
    fleet[src].Route(target, std::make_shared<AppMsg>(owner));
  }
  fleet.sim->RunFor(FromSeconds(30));
  EXPECT_EQ(delivered, kSends);
  for (int h : hop_counts) EXPECT_LE(h, fleet.MaxCodeLength() + 1);
}

TEST(OverlayRouteTest, ShortTargetPrefixDeliversSomewhereUnderPrefix) {
  OverlayFleet fleet = BuildOverlay(16, {});
  ASSERT_EQ(fleet.JoinedCount(), 16u);
  BitCode prefix = BitCode::FromString("01");
  int delivered = 0;
  for (auto& node : fleet.nodes) {
    node->set_on_deliver(
        [&, nodep = node.get()](NodeId, const MessagePtr&, int) {
          ++delivered;
          // Owner's code and the target must be prefix-compatible.
          int cpl = nodep->code().CommonPrefixLen(prefix);
          EXPECT_EQ(cpl, std::min(nodep->code().length(), prefix.length()));
        });
  }
  fleet[7].Route(prefix, std::make_shared<AppMsg>(0));
  fleet.sim->RunFor(FromSeconds(10));
  EXPECT_EQ(delivered, 1);
}

TEST(OverlayRouteTest, SelfDeliveryWhenOwner) {
  OverlayFleet fleet = BuildOverlay(4, {});
  ASSERT_EQ(fleet.JoinedCount(), 4u);
  // Build a target squarely inside node 2's own region.
  BitCode target = fleet[2].code();
  while (target.length() < 16) target.PushBack(0);
  int delivered_at = -1;
  for (auto& node : fleet.nodes) {
    node->set_on_deliver([&, id = node->id()](NodeId, const MessagePtr&, int) {
      delivered_at = id;
    });
  }
  fleet[2].Route(target, std::make_shared<AppMsg>(0));
  fleet.sim->RunFor(FromSeconds(5));
  EXPECT_EQ(delivered_at, 2);
}

TEST(OverlayRouteTest, HopsGrowLogarithmically) {
  OverlayFleet fleet = BuildOverlay(64, {});
  ASSERT_EQ(fleet.JoinedCount(), 64u);
  Rng rng(7);
  std::vector<int> hops;
  for (auto& node : fleet.nodes) {
    node->set_on_deliver(
        [&](NodeId, const MessagePtr&, int h) { hops.push_back(h); });
  }
  for (int i = 0; i < 300; ++i) {
    BitCode target = BitCode::FromBits(rng.Next(), 64);
    fleet[rng.Uniform(64)].Route(target, std::make_shared<AppMsg>(0));
  }
  fleet.sim->RunFor(FromSeconds(30));
  ASSERT_EQ(hops.size(), 300u);
  double mean = 0;
  for (int h : hops) mean += h;
  mean /= hops.size();
  // log2(64) = 6; expect mean around half that, clearly below it.
  EXPECT_LT(mean, 7.0);
  EXPECT_GT(mean, 1.0);
}

// ---------------------------------------------------------------- Broadcast

TEST(OverlayBroadcastTest, ReachesEveryNodeExactlyOnce) {
  OverlayFleet fleet = BuildOverlay(16, {});
  ASSERT_EQ(fleet.JoinedCount(), 16u);
  std::map<NodeId, int> seen;
  for (auto& node : fleet.nodes) {
    node->set_on_broadcast([&, id = node->id()](NodeId origin,
                                                const MessagePtr& inner) {
      EXPECT_EQ(origin, 3);
      EXPECT_NE(dynamic_cast<AppMsg*>(inner.get()), nullptr);
      seen[id]++;
    });
  }
  fleet[3].Broadcast(std::make_shared<AppMsg>(1));
  fleet.sim->RunFor(FromSeconds(10));
  EXPECT_EQ(seen.size(), 16u);
  for (auto& [id, n] : seen) EXPECT_EQ(n, 1) << "node " << id;
}

TEST(OverlayBroadcastTest, MultipleBroadcastsKeptDistinct) {
  OverlayFleet fleet = BuildOverlay(8, {});
  ASSERT_EQ(fleet.JoinedCount(), 8u);
  std::map<NodeId, std::multiset<int>> got;
  for (auto& node : fleet.nodes) {
    node->set_on_broadcast(
        [&, id = node->id()](NodeId, const MessagePtr& inner) {
          got[id].insert(dynamic_cast<AppMsg*>(inner.get())->value);
        });
  }
  fleet[0].Broadcast(std::make_shared<AppMsg>(10));
  fleet[5].Broadcast(std::make_shared<AppMsg>(20));
  fleet[0].Broadcast(std::make_shared<AppMsg>(30));
  fleet.sim->RunFor(FromSeconds(10));
  for (auto& [id, vals] : got) {
    EXPECT_EQ(vals, (std::multiset<int>{10, 20, 30})) << "node " << id;
  }
}

// ---------------------------------------------------------------- Direct

TEST(OverlayDirectTest, DirectSendAndFailureCallback) {
  OverlayOptions opts;
  opts.reconnect_backoff = FromMillis(100);
  opts.reconnect_max_attempts = 2;
  OverlayFleet fleet = BuildOverlay(4, opts);
  ASSERT_EQ(fleet.JoinedCount(), 4u);
  int got = 0;
  fleet[1].set_on_direct([&](NodeId from, const MessagePtr& msg) {
    EXPECT_EQ(from, 0);
    EXPECT_EQ(dynamic_cast<AppMsg*>(msg.get())->value, 77);
    ++got;
  });
  fleet[0].SendDirect(1, std::make_shared<AppMsg>(77));
  fleet.sim->RunFor(FromSeconds(2));
  EXPECT_EQ(got, 1);

  // Now a permanently dead destination: failure callback after retries.
  int failed = 0;
  fleet[0].set_on_direct_failed([&](NodeId to, const MessagePtr&) {
    EXPECT_EQ(to, 2);
    ++failed;
  });
  fleet.sim->network().SetNodeUp(2, false);
  fleet[0].SendDirect(2, std::make_shared<AppMsg>(88));
  fleet.sim->RunFor(FromSeconds(30));
  EXPECT_EQ(failed, 1);
}

TEST(OverlayDirectTest, RetrySucceedsAfterTransientLinkFlap) {
  OverlayOptions opts;
  opts.reconnect_backoff = FromMillis(500);
  opts.reconnect_max_attempts = 8;
  OverlayFleet fleet = BuildOverlay(4, opts);
  ASSERT_EQ(fleet.JoinedCount(), 4u);
  int got = 0;
  fleet[1].set_on_direct([&](NodeId, const MessagePtr&) { ++got; });
  // 2-second outage; retries should push the message through afterwards.
  fleet.sim->network().SetLinkDown(0, 1, FromSeconds(2));
  fleet[0].SendDirect(1, std::make_shared<AppMsg>(5));
  fleet.sim->RunFor(FromSeconds(20));
  EXPECT_EQ(got, 1);
}

// ---------------------------------------------------------------- Replication

TEST(OverlayReplicationTest, TargetsMatchPrefixLevels) {
  OverlayFleet fleet = BuildOverlay(16, {});
  ASSERT_EQ(fleet.JoinedCount(), 16u);
  for (auto& node : fleet.nodes) {
    const BitCode& code = node->code();
    auto t1 = node->ReplicationTargets(1);
    ASSERT_GE(t1.size(), 1u);
    // Level-1 target shares exactly len-1 bits (the sibling side).
    const BitCode& c1 = node->peers().at(t1[0]);
    EXPECT_EQ(code.CommonPrefixLen(c1), code.length() - 1);

    auto t3 = node->ReplicationTargets(3);
    for (size_t lvl = 0; lvl < t3.size(); ++lvl) {
      const BitCode& c = node->peers().at(t3[lvl]);
      EXPECT_EQ(code.CommonPrefixLen(c),
                code.length() - 1 - static_cast<int>(lvl));
    }
    // All-peers mode.
    auto all = node->ReplicationTargets(-1);
    EXPECT_EQ(all.size(), node->peers().size());
  }
}

// ---------------------------------------------------------------- Failure

TEST(OverlayFailureTest, SiblingTakesOverFailedNode) {
  OverlayOptions opts;
  opts.heartbeat_interval = FromSeconds(2);
  opts.heartbeat_miss_limit = 3;
  OverlayFleet fleet = BuildOverlay(8, opts);
  ASSERT_EQ(fleet.JoinedCount(), 8u);

  // Find a node whose sibling exists as a node.
  int victim = -1, sibling = -1;
  for (size_t i = 0; i < fleet.size() && victim < 0; ++i) {
    BitCode sib = fleet[i].code().Sibling();
    for (size_t j = 0; j < fleet.size(); ++j) {
      if (j != i && fleet[j].code() == sib) {
        victim = static_cast<int>(i);
        sibling = static_cast<int>(j);
        break;
      }
    }
  }
  ASSERT_GE(victim, 0);
  BitCode victim_code = fleet[victim].code();
  BitCode parent = victim_code.Parent();

  int takeovers = 0;
  fleet[sibling].set_on_takeover([&](BitCode absorbed) {
    EXPECT_EQ(absorbed, victim_code);
    ++takeovers;
  });

  fleet[victim].Crash();
  fleet.sim->RunFor(FromSeconds(30));

  EXPECT_EQ(takeovers, 1);
  EXPECT_EQ(fleet[sibling].code(), parent);
  EXPECT_TRUE(fleet.CodesFormCompleteCover());
}

TEST(OverlayFailureTest, RoutingSurvivesNodeFailure) {
  OverlayOptions opts;
  opts.heartbeat_interval = FromSeconds(2);
  opts.reconnect_backoff = FromMillis(250);
  opts.reconnect_max_attempts = 3;
  OverlayFleet fleet = BuildOverlay(16, opts, false, /*seed=*/11);
  ASSERT_EQ(fleet.JoinedCount(), 16u);

  fleet[5].Crash();
  fleet.sim->RunFor(FromSeconds(40));  // let failure detection converge

  Rng rng(13);
  int delivered = 0;
  const int kSends = 100;
  for (auto& node : fleet.nodes) {
    node->set_on_deliver([&](NodeId, const MessagePtr&, int) { ++delivered; });
  }
  for (int i = 0; i < kSends; ++i) {
    BitCode target = BitCode::FromBits(rng.Next(), 64);
    size_t src;
    do {
      src = rng.Uniform(fleet.size());
    } while (static_cast<int>(src) == 5);
    fleet[src].Route(target, std::make_shared<AppMsg>(0));
  }
  fleet.sim->RunFor(FromSeconds(60));
  EXPECT_EQ(delivered, kSends);
  EXPECT_TRUE(fleet.CodesFormCompleteCover());
}

TEST(OverlayFailureTest, RevivedNodeRejoins) {
  OverlayOptions opts;
  opts.heartbeat_interval = FromSeconds(2);
  OverlayFleet fleet = BuildOverlay(8, opts, false, /*seed=*/17);
  ASSERT_EQ(fleet.JoinedCount(), 8u);

  fleet[3].Crash();
  fleet.sim->RunFor(FromSeconds(30));
  EXPECT_TRUE(fleet.CodesFormCompleteCover());

  fleet[3].Revive(0);
  SimTime deadline = fleet.sim->now() + FromSeconds(120);
  while (!fleet[3].joined() && fleet.sim->now() < deadline) {
    fleet.sim->RunFor(FromSeconds(1));
  }
  EXPECT_TRUE(fleet[3].joined());
  EXPECT_TRUE(fleet.CodesFormCompleteCover());
}

TEST(OverlayFailureTest, MassFailureStillRoutesWithRecovery) {
  OverlayOptions opts;
  opts.heartbeat_interval = FromSeconds(2);
  opts.reconnect_backoff = FromMillis(250);
  opts.reconnect_max_attempts = 2;
  OverlayFleet fleet = BuildOverlay(32, opts, false, /*seed=*/23);
  ASSERT_EQ(fleet.JoinedCount(), 32u);

  // Kill ~15% of nodes (paper's robustness operating point).
  Rng rng(29);
  std::set<size_t> killed;
  while (killed.size() < 5) {
    size_t v = 1 + rng.Uniform(fleet.size() - 1);
    if (killed.insert(v).second) fleet[v].Crash();
  }
  fleet.sim->RunFor(FromSeconds(60));

  int delivered = 0;
  const int kSends = 200;
  for (auto& node : fleet.nodes) {
    node->set_on_deliver([&](NodeId, const MessagePtr&, int) { ++delivered; });
  }
  for (int i = 0; i < kSends; ++i) {
    BitCode target = BitCode::FromBits(rng.Next(), 64);
    size_t src;
    do {
      src = rng.Uniform(fleet.size());
    } while (killed.count(src));
    fleet[src].Route(target, std::make_shared<AppMsg>(0));
  }
  fleet.sim->RunFor(FromSeconds(120));
  // All regions are owned by live nodes after takeovers; routing should
  // succeed for nearly all messages (recovery may drop a few in transients).
  EXPECT_GE(delivered, kSends * 95 / 100);
}

}  // namespace
}  // namespace mind
