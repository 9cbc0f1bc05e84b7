// Multicast delivery groups: XOR repair codec round trips, group
// bookkeeping, coded repair fixing different losses at different receivers
// with one packet, the late-joiner bridge from the pinned prefix, the
// boundary-chunk deadline rule, and the demote-to-unicast path for a
// receiver that falls past the repair window. The degradation invariant
// mirrors the cache's: a member the group can no longer carry is demoted to
// unicast disk service and re-settled — never silently missed.

#include <gtest/gtest.h>

#include <algorithm>

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/core/cras.h"
#include "src/core/testbed.h"
#include "src/fault/fault.h"
#include "src/mcast/group_manager.h"
#include "src/mcast/group_transport.h"
#include "src/mcast/xor_codec.h"
#include "src/media/media_file.h"
#include "src/net/link.h"
#include "src/net/nps.h"

namespace crmcast {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

// ---------------------------------------------------------------------------
// Unit: XOR parity codec.

TEST(XorCodec, RoundTripRecoversAnySingleMissingFragment) {
  crbase::Rng rng(0xc0ded);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t count = 2 + static_cast<std::size_t>(rng.NextBelow(16));
    std::vector<std::vector<std::uint8_t>> fragments(count);
    for (auto& fragment : fragments) {
      fragment.resize(1 + static_cast<std::size_t>(rng.NextBelow(2000)));
      for (auto& byte : fragment) {
        byte = static_cast<std::uint8_t>(rng.NextBelow(256));
      }
    }
    const std::vector<std::uint8_t> parity = XorParity(fragments);
    const std::size_t missing = static_cast<std::size_t>(rng.NextBelow(count));
    std::vector<const std::vector<std::uint8_t>*> present;
    for (std::size_t i = 0; i < count; ++i) {
      if (i != missing) {
        present.push_back(&fragments[i]);
      }
    }
    const std::vector<std::uint8_t> recovered =
        XorRecover(parity, present, fragments[missing].size());
    EXPECT_EQ(recovered, fragments[missing]) << "iteration " << iter;
  }
}

TEST(XorCodec, ParityBytesIsTheLongestFragment) {
  EXPECT_EQ(XorParityBytes({100, 8192, 512}), 8192);
  EXPECT_EQ(XorParityBytes({64}), 64);
  EXPECT_EQ(XorParityBytes({}), 0);
}

// ---------------------------------------------------------------------------
// Unit: group membership bookkeeping and join placement.

TEST(GroupManager, PlanJoinBatchesBeforeShippingAndBridgesAfter) {
  McastOptions options;
  options.enabled = true;
  options.merge_margin_chunks = 2;
  GroupManager mgr(options);

  // No group yet: the caller must found one.
  EXPECT_FALSE(mgr.PlanJoin(/*title=*/7, /*prefix_end_chunk=*/0).joined);

  const GroupId group = mgr.CreateGroup(7, /*feed=*/100);
  mgr.AddMember(group, 1, 0);
  EXPECT_EQ(mgr.GroupOf(1), group);
  EXPECT_TRUE(mgr.IsFeed(100));
  EXPECT_EQ(mgr.FeedOf(group), 100);

  // Feed has not shipped: anyone batches in at merge 0, no prefix needed.
  JoinPlan plan = mgr.PlanJoin(7, 0);
  EXPECT_TRUE(plan.joined);
  EXPECT_EQ(plan.group, group);
  EXPECT_EQ(plan.merge_chunk, 0);

  // Rolling feed: the merge point is cursor + margin, and joining needs the
  // pinned prefix to cover the bridge.
  mgr.NoteShipCursor(group, 10);
  EXPECT_FALSE(mgr.PlanJoin(7, /*prefix_end_chunk=*/5).joined)
      << "prefix too short to bridge to chunk 12";
  plan = mgr.PlanJoin(7, /*prefix_end_chunk=*/40);
  EXPECT_TRUE(plan.joined);
  EXPECT_EQ(plan.merge_chunk, 12);

  // Another title never matches.
  EXPECT_FALSE(mgr.PlanJoin(8, 40).joined);

  // Departures: the last member out hands the feed back.
  mgr.AddMember(group, 2, 12);
  EXPECT_EQ(mgr.RemoveMember(1, "close"), kNoSession);
  EXPECT_EQ(mgr.RemoveMember(2, "close"), 100);
  EXPECT_FALSE(mgr.Alive(group));
  EXPECT_EQ(mgr.stats().groups_formed, 1);
  EXPECT_EQ(mgr.stats().members_left, 2);
}

// ---------------------------------------------------------------------------
// Unit: the shared deadline rule, exactly at the boundary chunk.
//
// Regression: the NAK give-up check, the receiver drop rule, and grouped
// repair once disagreed about a chunk whose playout clock sits exactly on
// timestamp + duration. The shared crnet::ChunkDeadline helper makes the
// rule single-sourced: still repairable AT the deadline, dead strictly past
// it.

TEST(ChunkDeadline, BufferedAndIndexChunksAgree) {
  cras::BufferedChunk buffered;
  buffered.timestamp = Seconds(3);
  buffered.duration = Milliseconds(250);
  crmedia::Chunk indexed;
  indexed.timestamp = Seconds(3);
  indexed.duration = Milliseconds(250);
  EXPECT_EQ(crnet::ChunkDeadline(buffered), Seconds(3) + Milliseconds(250));
  EXPECT_EQ(crnet::ChunkDeadline(buffered), crnet::ChunkDeadline(indexed));
}

TEST(ChunkDeadline, ReceiverKeepsTheBoundaryChunkRepairable) {
  cras::Testbed bed;  // engine + kernel; no servers needed
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "m", Seconds(4));
  GroupReceiver receiver(bed.kernel, &movie.index);
  crsim::Task reporter = receiver.Start();

  // A partial chunk 0 is pending; pin the (stopped) logical clock exactly
  // on its playout deadline. The sweep must NOT abandon it.
  crnet::NpsFragment fragment;
  fragment.seq = 0;
  fragment.frag_index = 0;
  fragment.frag_count = 2;
  fragment.bytes = 1024;
  fragment.chunk.chunk_index = 0;
  fragment.chunk.timestamp = movie.index.at(0).timestamp;
  fragment.chunk.duration = movie.index.at(0).duration;
  fragment.chunk.size = 2048;
  fragment.multicast = true;
  receiver.OnFragment(fragment);
  ASSERT_EQ(receiver.incomplete_chunks(), 1u);

  receiver.clock().SeekTo(crnet::ChunkDeadline(movie.index.at(0)));
  bed.engine().RunFor(Milliseconds(100));
  EXPECT_EQ(receiver.stats().chunks_abandoned, 0)
      << "a chunk is still repairable exactly at its deadline";
  EXPECT_EQ(receiver.incomplete_chunks(), 1u);

  // One tick past the deadline: dead everywhere.
  receiver.clock().SeekTo(crnet::ChunkDeadline(movie.index.at(0)) + 1);
  bed.engine().RunFor(Milliseconds(100));
  EXPECT_EQ(receiver.stats().chunks_abandoned, 1);
  EXPECT_EQ(receiver.incomplete_chunks(), 0u);
  receiver.Stop();
  bed.engine().RunFor(Milliseconds(100));
}

// ---------------------------------------------------------------------------
// Unit: one parity packet fixes a different loss at each receiver.

TEST(GroupTransport, OneRepairPacketFixesDifferentLossesAtTwoReceivers) {
  cras::Testbed bed;
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "m", Seconds(4));
  GroupReceiver r1(bed.kernel, &movie.index);
  GroupReceiver r2(bed.kernel, &movie.index);

  auto fragment = [&](std::uint64_t seq, int index) {
    crnet::NpsFragment f;
    f.seq = seq;
    f.frag_index = index;
    f.frag_count = 2;
    f.bytes = 4096;
    f.chunk.chunk_index = static_cast<std::int64_t>(seq);
    f.chunk.timestamp = movie.index.at(seq).timestamp;
    f.chunk.duration = movie.index.at(seq).duration;
    f.chunk.size = 8192;
    f.multicast = true;
    return f;
  };
  // r1 misses (0,1) but holds chunk 1 complete; r2 holds chunk 0 complete
  // and misses (1,1).
  r1.OnFragment(fragment(0, 0));
  r1.OnFragment(fragment(1, 0));
  r1.OnFragment(fragment(1, 1));
  r2.OnFragment(fragment(0, 0));
  r2.OnFragment(fragment(0, 1));
  r2.OnFragment(fragment(1, 0));
  ASSERT_EQ(r1.stats().chunks_received, 1);
  ASSERT_EQ(r2.stats().chunks_received, 1);

  RepairPacket packet;
  for (std::uint64_t seq : {std::uint64_t{0}, std::uint64_t{1}}) {
    RepairRef ref;
    ref.seq = seq;
    ref.frag_index = 1;
    ref.frag_count = 2;
    ref.bytes = 4096;
    ref.chunk = fragment(seq, 1).chunk;
    packet.window.push_back(ref);
  }
  packet.bytes = 4096 + 96;
  r1.OnRepair(packet);
  r2.OnRepair(packet);

  EXPECT_EQ(r1.stats().repair_decodes, 1);
  EXPECT_EQ(r2.stats().repair_decodes, 1);
  EXPECT_EQ(r1.stats().chunks_received, 2) << "parity completed chunk 0 at r1";
  EXPECT_EQ(r2.stats().chunks_received, 2) << "parity completed chunk 1 at r2";
  EXPECT_EQ(r1.stats().repair_decode_failed, 0);
  EXPECT_EQ(r2.stats().repair_decode_failed, 0);

  // A second copy of the same parity is useless now: nothing is absent.
  r1.OnRepair(packet);
  EXPECT_EQ(r1.stats().repair_useless, 1);
}

// ---------------------------------------------------------------------------
// Integration rig: grouped viewers over a shared forward link.

struct Viewer {
  cras::SessionId session = cras::kInvalidSession;
  std::unique_ptr<GroupReceiver> receiver;
  std::unique_ptr<crnet::Link> reverse;
  std::int64_t frames_ok = 0;
  std::int64_t frames_missed = 0;
};

cras::TestbedOptions GroupedTestbedOptions() {
  cras::TestbedOptions options;
  options.cras.mcast.enabled = true;
  options.cras.cache.enabled = true;
  options.cras.cache.pin_min_score = 0.5;  // first open pins the prefix
  options.cras.cache.prefix_length = Seconds(20);
  options.cras.memory_budget_bytes = 64 * crbase::kMiB;
  return options;
}

// Opens a grouped viewer, wires its receiver to the sender, and spawns a
// player that consumes every chunk by logical time.
void SpawnViewer(cras::Testbed& bed, GroupSender& sender, crnet::Link& forward,
                 const crmedia::MediaFile& movie, crbase::Duration open_at,
                 crbase::Duration extra_delay, Viewer* viewer, std::vector<crsim::Task>* tasks) {
  (void)forward;
  viewer->receiver = std::make_unique<GroupReceiver>(bed.kernel, &movie.index);
  viewer->reverse = std::make_unique<crnet::Link>(bed.engine());
  tasks->push_back(bed.kernel.Spawn(
      "viewer", crrt::kPriorityClient, [&, open_at, extra_delay, viewer, tasks](
                                           crrt::ThreadContext& ctx) -> crsim::Task {
        co_await ctx.Sleep(open_at);
        cras::OpenParams params;
        params.inode = movie.inode;
        params.index = movie.index;
        params.grouped = true;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok()) << opened.status().ToString();
        viewer->session = *opened;
        sender.AddMember(viewer->session, *viewer->receiver);
        viewer->receiver->ConnectReverse(*viewer->reverse, sender, viewer->session);
        tasks->push_back(viewer->receiver->Start());
        const crbase::Duration delay =
            bed.cras_server.SuggestedInitialDelay() + extra_delay;
        (void)co_await bed.cras_server.StartStream(viewer->session, delay);
        // The playout clock trails the session clock by a little slack, so
        // an interval-boundary chunk published exactly at its timestamp
        // still crosses the wire in time (the standard remote-client lag).
        const crbase::Duration playout = delay + Milliseconds(200);
        viewer->receiver->clock().Start(playout);
        co_await ctx.Sleep(playout);
        for (const crmedia::Chunk& chunk : movie.index.chunks()) {
          while (viewer->receiver->clock().Now() < chunk.timestamp) {
            co_await ctx.Sleep(Milliseconds(2));
          }
          if (viewer->receiver->Get(chunk.timestamp).has_value()) {
            ++viewer->frames_ok;
          } else {
            ++viewer->frames_missed;
          }
        }
        viewer->receiver->Stop();
      }));
}

TEST(McastIntegration, LateJoinerBridgesFromPrefixThenMerges) {
  cras::Testbed bed(GroupedTestbedOptions());
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(12));
  crnet::Link::Options forward_options;
  forward_options.bandwidth_bytes_per_sec = 12.5e6;  // fast LAN, kept clean
  crnet::Link forward(bed.engine(), forward_options);
  GroupSender sender(bed.kernel, bed.cras_server, forward);
  sender.AttachObs(&bed.hub, "g1");

  Viewer a, b;
  std::vector<crsim::Task> tasks;
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/0, /*extra_delay=*/0, &a, &tasks);
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/Seconds(2), /*extra_delay=*/0, &b,
              &tasks);
  // Let A's open land, then start the group's transmitter.
  bed.engine().RunFor(Milliseconds(100));
  ASSERT_NE(a.session, cras::kInvalidSession);
  GroupManager* mgr = bed.cras_server.mcast_groups();
  ASSERT_NE(mgr, nullptr);
  const GroupId group = mgr->GroupOf(a.session);
  ASSERT_NE(group, kNoGroup);
  tasks.push_back(sender.Start(group, &movie.index));
  bed.engine().RunFor(Seconds(20));

  // B joined A's group as a late joiner with a real bridge.
  ASSERT_NE(b.session, cras::kInvalidSession);
  EXPECT_GT(sender.stats().patch_chunks, 0) << "the bridge was served unicast";
  EXPECT_GT(sender.stats().deduped_chunk_reads, 0) << "the fan-out shared disk reads";
  EXPECT_GT(sender.stats().chunks_multicast, 0);

  // Both viewers complete with nothing missed, nothing shed.
  EXPECT_EQ(a.frames_missed, 0);
  EXPECT_EQ(b.frames_missed, 0);
  EXPECT_EQ(a.frames_ok + a.frames_missed,
            static_cast<std::int64_t>(movie.index.count()));
  EXPECT_EQ(b.frames_ok + b.frames_missed,
            static_cast<std::int64_t>(movie.index.count()));
  EXPECT_EQ(bed.cras_server.stats().streams_shed, 0);
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);

  // Flight events and prefix-filtered metrics tell the story.
  bool saw_formed = false;
  bool saw_joined = false;
  std::int64_t late_merge = 0;
  for (const crobs::FlightEvent& event : bed.hub.flight().events()) {
    saw_formed |= event.kind == crobs::FlightEventKind::kGroupFormed;
    if (event.kind == crobs::FlightEventKind::kGroupJoined) {
      saw_joined = true;
      late_merge = std::max<std::int64_t>(late_merge, event.value);
    }
  }
  EXPECT_TRUE(saw_formed);
  EXPECT_TRUE(saw_joined);
  EXPECT_GT(late_merge, 0) << "the late joiner's merge point is past the start";
  const std::string mcast_metrics = bed.hub.MetricsJson("mcast.");
  EXPECT_NE(mcast_metrics.find("mcast.tx_chunks"), std::string::npos);
  EXPECT_NE(mcast_metrics.find("mcast.deduped_chunk_reads"), std::string::npos);
  EXPECT_EQ(mcast_metrics.find("link."), std::string::npos)
      << "prefix filtering leaked foreign metrics";
}

// ---------------------------------------------------------------------------
// Integration: a member's bridge walk sleeps exactly until its session clock
// reaches the next ship time, and clock changes re-target that sleep.

TEST(McastIntegration, BridgeWalkRetargetsOnStopStartSeekAndSetRate) {
  cras::TestbedOptions options = GroupedTestbedOptions();
  options.obs.frames.enabled = true;  // kSent stamps time every send
  cras::Testbed bed(options);
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(16));
  crnet::Link::Options forward_options;
  forward_options.bandwidth_bytes_per_sec = 12.5e6;
  crnet::Link forward(bed.engine(), forward_options);
  const GroupSender::Options sender_options;
  GroupSender sender(bed.kernel, bed.cras_server, forward, sender_options);
  cras::CrasServer& server = bed.cras_server;

  // A founds the group; B joins 4 s later and bridges ~120 chunks.
  Viewer a, b;
  std::vector<crsim::Task> tasks;
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/0, /*extra_delay=*/0, &a, &tasks);
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/Seconds(4), /*extra_delay=*/0, &b,
              &tasks);
  bed.engine().RunFor(Milliseconds(100));
  tasks.push_back(sender.Start(bed.cras_server.mcast_groups()->GroupOf(a.session),
                               &movie.index));
  bed.engine().RunUntil(Seconds(6));
  ASSERT_NE(b.session, cras::kInvalidSession);
  ASSERT_GT(sender.stats().patch_chunks, 0) << "B is bridging";

  auto control = [&](auto op) {
    tasks.push_back(bed.kernel.Spawn(
        "control", crrt::kPriorityClient, [op](crrt::ThreadContext&) -> crsim::Task {
          const crbase::Status status = co_await op();
          CRAS_CHECK(status.ok()) << status.ToString();
        }));
    bed.engine().RunFor(Milliseconds(2));  // the request manager's turn
  };
  // The member's next chunk leaves at the exact ship time on B's clock
  // (plus the sender's CPU charge), not a poll later.
  auto expect_send_exact = [&](std::int64_t chunk, const char* what) {
    const crbase::Time ship_at = server.RealTimeOf(
        b.session, movie.index.at(static_cast<std::size_t>(chunk)).timestamp -
                       sender_options.lookahead);
    ASSERT_NE(ship_at, crbase::kNever) << what;
    bed.engine().RunUntil(std::max(bed.engine().Now(), ship_at) + Milliseconds(50));
    const crobs::FrameRecord* record = server.FrameTrace(b.session)->Find(chunk);
    ASSERT_NE(record, nullptr) << what;
    const crbase::Time sent = record->stage[static_cast<int>(crobs::FrameStage::kSent)];
    EXPECT_GE(sent - ship_at, sender_options.cpu_per_chunk) << what;
    EXPECT_LT(sent - ship_at, sender_options.cpu_per_chunk + Milliseconds(1)) << what;
  };
  auto next_bridge_chunk = [&] {
    return sender.stats().patch_chunks + sender.stats().unicast_chunks;
  };

  // Stop B: once the chunks already due have shipped (as their data lands,
  // within an interval), the bridge pauses — nothing ships, nothing polls.
  control([&] { return server.StopStream(b.session); });
  bed.engine().RunFor(server.options().interval + Milliseconds(100));
  const std::int64_t patched = sender.stats().patch_chunks;
  bed.engine().RunFor(Seconds(1));
  EXPECT_EQ(sender.stats().patch_chunks, patched);
  // Start B: the parked walk wakes and the bridge resumes on time.
  control([&] { return server.StartStream(b.session, 0); });
  expect_send_exact(next_bridge_chunk(), "after start");

  // Seek B past everything the feed has multicast: it leaves the group,
  // and its walk turns unicast from the new position.
  const crbase::Time seek_to = server.LogicalNow(b.session) + Seconds(8);
  control([&] { return server.Seek(b.session, seek_to); });
  EXPECT_EQ(bed.cras_server.mcast_groups()->GroupOf(b.session), kNoGroup);
  bed.engine().RunFor(Seconds(1) + Milliseconds(100));
  EXPECT_GT(sender.stats().unicast_chunks, 0) << "B is carried unicast after its seek";

  // SetRate on the now-unicast B: the walk's pending sleep re-targets.
  control([&] { return server.SetRate(b.session, 2.0); });
  const std::int64_t next = movie.index.FindByTime(server.LogicalNow(b.session) +
                                                   sender_options.lookahead) + 1;
  expect_send_exact(next, "after set_rate");
}

// Two identical runs of a multi-member group fire the same events: the
// wait lists wake in the order threads parked, never in pointer order.
TEST(McastIntegration, IdenticalGroupRunsFireTheSameEventCount) {
  auto run = [] {
    cras::Testbed bed(GroupedTestbedOptions());
    bed.StartServers();
    const auto movie = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(6));
    crnet::Link::Options forward_options;
    forward_options.bandwidth_bytes_per_sec = 12.5e6;
    forward_options.impairments.loss_probability = 0.01;
    crnet::Link forward(bed.engine(), forward_options);
    GroupSender sender(bed.kernel, bed.cras_server, forward);
    std::vector<Viewer> viewers(6);
    std::vector<crsim::Task> tasks;
    for (std::size_t i = 0; i < viewers.size(); ++i) {
      SpawnViewer(bed, sender, forward, movie, Milliseconds(300) * static_cast<int>(i),
                  /*extra_delay=*/0, &viewers[i], &tasks);
    }
    bed.engine().RunFor(Milliseconds(100));
    tasks.push_back(sender.Start(bed.cras_server.mcast_groups()->GroupOf(viewers[0].session),
                                 &movie.index));
    bed.engine().RunFor(Seconds(12));
    std::int64_t frames = 0;
    for (const Viewer& v : viewers) {
      frames += v.frames_ok;
    }
    return std::make_pair(bed.engine().events_fired(), frames);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_GT(first.second, 0);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// ---------------------------------------------------------------------------
// Integration: a receiver past the repair window demotes to unicast.

TEST(McastIntegration, ReceiverPastRepairWindowDemotesAndResettles) {
  cras::Testbed bed(GroupedTestbedOptions());
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(10));
  crnet::Link::Options forward_options;
  forward_options.bandwidth_bytes_per_sec = 12.5e6;
  crnet::Link forward(bed.engine(), forward_options);
  GroupSender::Options sender_options;
  sender_options.repair_window_chunks = 4;  // a tiny window, easy to fall past
  GroupSender sender(bed.kernel, bed.cras_server, forward, sender_options);

  // A starts promptly; B joins the same (not yet shipping) group but delays
  // its playout by several seconds, so its clock trails the feed far beyond
  // the four-chunk repair window.
  Viewer a, b;
  std::vector<crsim::Task> tasks;
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/0, /*extra_delay=*/0, &a, &tasks);
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/Milliseconds(20),
              /*extra_delay=*/Seconds(5), &b, &tasks);
  bed.engine().RunFor(Milliseconds(100));
  ASSERT_NE(a.session, cras::kInvalidSession);
  ASSERT_NE(b.session, cras::kInvalidSession);
  GroupManager* mgr = bed.cras_server.mcast_groups();
  const GroupId group = mgr->GroupOf(a.session);
  ASSERT_EQ(mgr->GroupOf(b.session), group) << "B batched into A's group";
  tasks.push_back(sender.Start(group, &movie.index));

  // Run until the feed has multicast well past the window, then claim B
  // lost chunk 0. The store pruned it long ago, but B's clock says it is
  // still repairable: that is the fell-behind signal.
  bed.engine().RunFor(Seconds(4));
  ASSERT_GT(sender.stats().chunks_multicast, 4);
  LossReport report;
  report.member = b.session;
  report.entries.push_back(LossReportEntry{0, {}});
  sender.OnLossReport(report);
  bed.engine().RunFor(Seconds(14));

  EXPECT_EQ(sender.stats().members_demoted, 1);
  EXPECT_EQ(mgr->GroupOf(b.session), kNoGroup) << "B left the group";
  EXPECT_GT(sender.stats().unicast_chunks, 0) << "B was carried unicast after the demote";
  bool saw_demote = false;
  for (const crobs::FlightEvent& event : bed.hub.flight().events()) {
    if (event.kind == crobs::FlightEventKind::kGroupLeft &&
        event.detail == "behind_window") {
      saw_demote = true;
    }
  }
  EXPECT_TRUE(saw_demote);
  // Never a silent miss: B still completes every frame, via disk + unicast.
  EXPECT_EQ(b.frames_missed, 0);
  EXPECT_EQ(b.frames_ok, static_cast<std::int64_t>(movie.index.count()));
  EXPECT_EQ(a.frames_missed, 0);
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
}

// ---------------------------------------------------------------------------
// Chaos overlap: the other member crashes while a demote is re-settling.

TEST(McastIntegration, ClientCrashDuringDemoteResettleConservesMembership) {
  // B falls behind the repair window and is demoted to unicast; while that
  // re-settle is still fresh, A — the group's only other member — crashes
  // abruptly (no Close, heartbeats just stop). The lease reaper must
  // collect A, the group must dissolve with joins == leaves, and B must
  // still complete every frame via unicast disk service.
  cras::TestbedOptions options = GroupedTestbedOptions();
  options.cras.lease_period = Milliseconds(300);
  cras::Testbed bed(options);
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(10));
  crnet::Link::Options forward_options;
  forward_options.bandwidth_bytes_per_sec = 12.5e6;
  crnet::Link forward(bed.engine(), forward_options);
  GroupSender::Options sender_options;
  sender_options.repair_window_chunks = 4;
  GroupSender sender(bed.kernel, bed.cras_server, forward, sender_options);
  sender.AttachObs(&bed.hub, "g1");

  Viewer a, b;
  std::vector<crsim::Task> tasks;
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/0, /*extra_delay=*/0, &a, &tasks);
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/Milliseconds(20),
              /*extra_delay=*/Seconds(5), &b, &tasks);
  bed.engine().RunFor(Milliseconds(100));
  ASSERT_NE(a.session, cras::kInvalidSession);
  ASSERT_NE(b.session, cras::kInvalidSession);
  GroupManager* mgr = bed.cras_server.mcast_groups();
  const GroupId group = mgr->GroupOf(a.session);
  ASSERT_EQ(mgr->GroupOf(b.session), group);
  tasks.push_back(sender.Start(group, &movie.index));

  // Leases: both viewers heartbeat until told otherwise.
  crnet::Link heartbeat_link(bed.engine());
  crnet::LeaseClient::Options hb;
  hb.period = Milliseconds(100);
  std::vector<std::unique_ptr<crnet::LeaseClient>> leases;
  leases.push_back(std::make_unique<crnet::LeaseClient>(
      bed.kernel, bed.cras_server, heartbeat_link, a.session, hb));
  leases.push_back(std::make_unique<crnet::LeaseClient>(
      bed.kernel, bed.cras_server, heartbeat_link, b.session, hb));
  tasks.push_back(leases[0]->Start());
  tasks.push_back(leases[1]->Start());

  // The crash is scripted like any other fault: the handler kills the
  // client's heartbeat generator — no Close is ever sent.
  crfault::FaultPlan plan;
  plan.ClientCrash(Seconds(4) + Milliseconds(10), /*client=*/0);
  crfault::FaultInjector injector(bed.engine(), /*volume=*/nullptr,
                                  std::vector<crnet::Link*>{}, plan);
  injector.SetClientCrashHandler(
      [&leases](int client) { leases[static_cast<std::size_t>(client)]->Stop(); });
  injector.AttachObs(&bed.hub);
  injector.Arm();

  // Demote B (stale loss report) at 4 s; A's crash lands 10 ms later, while
  // the demote's re-settle is the freshest admission state.
  bed.engine().RunFor(Seconds(4) - Milliseconds(100));
  ASSERT_GT(sender.stats().chunks_multicast, 4);
  LossReport report;
  report.member = b.session;
  report.entries.push_back(LossReportEntry{0, {}});
  sender.OnLossReport(report);
  bed.engine().RunFor(Seconds(16));

  ASSERT_EQ(injector.events_fired(), 1);
  EXPECT_EQ(sender.stats().members_demoted, 1);
  EXPECT_EQ(mgr->GroupOf(b.session), kNoGroup);
  // A was collected by the reaper, not closed.
  EXPECT_TRUE(bed.cras_server.WasReaped(a.session));
  EXPECT_FALSE(bed.cras_server.HasSession(a.session));
  // Membership conservation under churn: every join has a matching leave
  // (B's demotion + A's reap), and no group survives its members.
  EXPECT_EQ(mgr->stats().members_joined, mgr->stats().members_left);
  EXPECT_EQ(mgr->stats().groups_formed, mgr->stats().groups_dissolved);
  EXPECT_EQ(mgr->group_count(), 0u);
  // B was never silently missed: demoted mid-crash, it still completes.
  EXPECT_EQ(b.frames_missed, 0);
  EXPECT_EQ(b.frames_ok, static_cast<std::int64_t>(movie.index.count()));
  // The causal chain is on the record: crash -> reap, demote -> group-left.
  bool saw_crash = false;
  bool saw_reap = false;
  bool saw_demote = false;
  for (const crobs::FlightEvent& event : bed.hub.flight().events()) {
    saw_crash |= event.kind == crobs::FlightEventKind::kFaultInjected &&
                 event.detail == "client_crash";
    saw_reap |= event.kind == crobs::FlightEventKind::kLeaseReap &&
                event.a == static_cast<std::int64_t>(a.session);
    saw_demote |= event.kind == crobs::FlightEventKind::kGroupLeft &&
                  event.detail == "behind_window";
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_reap);
  EXPECT_TRUE(saw_demote);
}

// ---------------------------------------------------------------------------
// Fault scripting against grouped links: one plan degrades every link.

TEST(FaultInjection, MultiLinkPlanAppliesToEveryLink) {
  crsim::Engine engine;
  crnet::Link l1(engine), l2(engine);
  crfault::FaultPlan plan;
  plan.LinkLoss(Milliseconds(10), 0.25).LinkRecover(Milliseconds(20));
  crfault::FaultInjector injector(engine, /*volume=*/nullptr, {&l1, &l2}, plan);
  injector.Arm();
  engine.RunFor(Milliseconds(15));
  EXPECT_EQ(l1.impairments().loss_probability, 0.25);
  EXPECT_EQ(l2.impairments().loss_probability, 0.25);
  engine.RunFor(Milliseconds(10));
  EXPECT_EQ(l1.impairments().loss_probability, 0.0);
  EXPECT_EQ(l2.impairments().loss_probability, 0.0);
  EXPECT_EQ(injector.events_fired(), 2);
}

}  // namespace
}  // namespace crmcast
