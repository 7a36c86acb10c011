// Sharded one-to-many delivery: the common primitive behind every broadcast
// site in the stack (visit::Multiplexer fan-out, visit::ProxyServer
// per-attachment queues).
//
// The shape is always the same: one producer publishes an encoded frame, N
// consumers each need their own copy-free view of it, and one slow consumer
// must never stall the producer or its siblings. The pieces here encode that
// contract once:
//
//   * FramePtr        — one immutable encoded frame, shared (not copied)
//                       across every consumer queue.
//   * OutboundQueue   — a bounded per-consumer queue with an explicit
//                       overflow policy per frame class.
//   * ShardedFanout   — consumers hashed onto a small worker pool; publish()
//                       only enqueues, workers do the blocking sends.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "common/status.hpp"

namespace cs::common {

/// Lifecycle stamps (steady_now_ns) a frame carries from birth. They are set
/// once, before the frame is published, and immutable afterwards — the
/// shared frame fans out to many consumer queues and threads, so per-consumer
/// stages (queue wait) live on OutboundQueue::Item, never here.
struct FrameTrace {
  /// When the raw input behind this frame entered the process (0 = unknown;
  /// producers that relay external data pass it to make_frame).
  std::uint64_t ingress_ns = 0;
  /// When wire encoding finished (stamped by make_frame).
  std::uint64_t encode_ns = 0;
};

/// One encoded wire frame, shared across all consumer queues. A broadcast
/// serializes exactly once; every queue holds a reference, never a copy.
/// Frame IS-A Bytes (public inheritance), so every consumer of the payload —
/// span views, codecs, sinks — keeps treating it as the byte vector; the
/// trace stamps ride along without touching the wire format.
struct Frame : Bytes {
  explicit Frame(Bytes bytes) : Bytes(std::move(bytes)) {}
  FrameTrace trace;
};

using FramePtr = std::shared_ptr<const Frame>;

/// Wraps freshly encoded bytes into a shareable frame, stamping encode time.
/// `ingress_ns` is the optional birth stamp of the raw input (a steering
/// sample's arrival, a media frame's capture) for ingress→encode accounting.
inline FramePtr make_frame(Bytes bytes, std::uint64_t ingress_ns = 0) {
  auto frame = std::make_shared<Frame>(std::move(bytes));
  frame->trace.ingress_ns = ingress_ns;
  frame->trace.encode_ns = steady_now_ns();
  return frame;
}

/// What happens when a consumer's queue is full.
///
/// The policy is chosen per frame, not per queue, because one connection
/// carries two traffic classes with opposite loss semantics:
///   * kDropOldest  — frame-like traffic (simulation samples). Losing a
///     stale sample is harmless; the next one supersedes it. The oldest
///     queued frame is evicted to make room.
///   * kDisconnect  — control traffic (roles, schemas, shutdown notices).
///     These must be lossless: they are never evicted once queued, they
///     evict a stale data frame to get in when the queue is full, and a
///     consumer whose queue holds *nothing but* undeliverable control
///     frames has diverged and is disconnected rather than silently
///     missing one.
enum class OverflowPolicy : std::uint8_t {
  kDropOldest = 0,
  kDisconnect = 1,
};

/// Bounded outbound frame queue for one consumer. Not internally
/// synchronized — the owner (a ShardedFanout shard, or a server holding its
/// own lock) serializes access.
class OutboundQueue {
 public:
  /// Outcome of a push against a full queue.
  enum class Push : std::uint8_t {
    kQueued,            ///< frame accepted, queue had room
    kQueuedDropOldest,  ///< frame accepted, the oldest *data* frame evicted
    kDroppedNewest,     ///< full of control frames: the incoming *data*
                        ///< frame itself was shed (control is never evicted)
    kRejectedOverflow,  ///< full of control frames and the incoming frame is
                        ///< control too: refused, consumer dead
    kCoalesced,         ///< replaced the queued item with the same
                        ///< coalesce_key in place (position retained)
  };

  /// One queued frame together with the policy it was published under (the
  /// policy doubles as the traffic-class tag for delivery accounting).
  ///
  /// The payload is either pre-encoded wire bytes shared by every consumer
  /// (`frame`) or an opaque source object (`source`) that each consumer's
  /// sink encodes for itself at delivery time. The second form is how
  /// per-consumer payloads — e.g. delta compression against each
  /// consumer's own delivery history — ride the same queues, overflow
  /// policies, and workers as shared broadcasts: the expensive per-consumer
  /// encode happens on the consumer's worker, after any overflow shedding,
  /// never on the publisher.
  struct Item {
    FramePtr frame = nullptr;
    OverflowPolicy policy = OverflowPolicy::kDropOldest;
    std::shared_ptr<const void> source = nullptr;
    /// Non-zero: at most one item with this key sits in a queue — a newer
    /// push *replaces* the queued one in place (same position, one
    /// accounting slot) instead of enqueueing behind it. For traffic whose
    /// frames supersede each other (progress acks): a burst can never
    /// overflow the queue, and lossless-or-dead still holds for the
    /// latest value.
    std::uint64_t coalesce_key = 0;
    /// When this item entered *this consumer's* queue (stamped by
    /// push()/seed(); per-consumer by construction, unlike the shared
    /// FrameTrace). Feeds the enqueue→write stage histogram.
    std::uint64_t enqueued_ns = 0;
  };

  /// @param capacity maximum queued frames; at least 1 is enforced.
  explicit OutboundQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Enqueues `item`; applies its policy when full.
  Push push(Item item);

  /// Enqueues pre-encoded bytes under `policy` (shared-frame convenience).
  Push push(FramePtr frame, OverflowPolicy policy) {
    return push(Item{std::move(frame), policy, nullptr});
  }

  /// Enqueues unconditionally, even beyond capacity. For seeding a fresh
  /// queue with replay state that must not be droppable; subsequent push()
  /// calls enforce the bound again.
  void seed(Item item);

  /// Pops the oldest frame; empty Item (null frame) when the queue is empty.
  Item pop();

  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Deepest the queue has ever been (backlog watermark for stats()).
  std::size_t high_water() const noexcept { return high_water_; }
  /// Frames evicted by kDropOldest pushes.
  std::uint64_t dropped() const noexcept { return dropped_; }

  void clear() { items_.clear(); }

 private:
  std::deque<Item> items_;
  std::size_t capacity_;
  std::size_t high_water_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Per-stage frame-lifecycle latency: where a frame's time goes between its
/// birth and the moment its bytes are handed to the consumer's transport.
/// Recorded at delivery, so every histogram is delivery-weighted — a frame
/// fanned out to N consumers contributes N samples per stage. Stages whose
/// stamps are absent (no ingress stamp, source-payload items with no shared
/// frame) are simply skipped, never recorded as zero.
struct FrameStageStats {
  Histogram ingress_to_encode;  ///< raw input arrival -> encoded frame
  Histogram encode_to_enqueue;  ///< encoded frame -> consumer queue entry
  Histogram enqueue_to_write;   ///< consumer queue entry -> transport write

  /// Records every stage the item's stamps cover; `write_ns` is when the
  /// item's bytes were handed to the transport.
  void record(const OutboundQueue::Item& item, std::uint64_t write_ns) noexcept;
  void merge(const FrameStageStats& other) noexcept;
  /// Delivery-weighted sample count (the enqueue→write stage sees every
  /// delivered item that was ever queued).
  std::uint64_t samples() const noexcept { return enqueue_to_write.count(); }
};

/// Per-shard delivery counters. "data" rows account frames published under
/// OverflowPolicy::kDropOldest, "control" rows frames published under
/// kDisconnect — the policy is the traffic-class tag.
struct FanoutShardStats {
  std::uint64_t data_enqueued = 0;     ///< sample frames accepted into queues
  std::uint64_t data_delivered = 0;    ///< sample frames handed to sinks
  std::uint64_t data_dropped = 0;      ///< sample frames evicted or timed out
  std::uint64_t control_enqueued = 0;  ///< control frames accepted
  std::uint64_t control_delivered = 0; ///< control frames handed to sinks
  std::uint64_t disconnects = 0;       ///< subscribers torn down by the shard
  std::size_t subscribers = 0;         ///< current subscriber count
  std::size_t queued_frames = 0;       ///< frames currently pending
  std::size_t queue_high_water = 0;    ///< deepest single-subscriber backlog
};

/// Aggregate fan-out counters plus the per-shard breakdown.
struct FanoutStats {
  std::uint64_t data_enqueued = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t data_dropped = 0;
  std::uint64_t control_enqueued = 0;
  std::uint64_t control_delivered = 0;
  std::uint64_t disconnects = 0;
  std::size_t subscribers = 0;
  std::size_t queued_frames = 0;
  /// Frame-lifecycle stage latencies, merged across shards (deliveries by
  /// this fanout's workers only).
  FrameStageStats stages;
  std::vector<FanoutShardStats> shards;
};

/// Sharded broadcast fan-out: subscribers are hashed onto a small pool of
/// worker threads; each subscriber owns a bounded OutboundQueue.
///
/// publish() and send_to() only enqueue (they never perform I/O), so the
/// producer is decoupled from every consumer. Each shard's worker drains its
/// subscribers' queues round-robin, one frame per subscriber per pass, so a
/// deep backlog on one subscriber cannot monopolize its shard, and a blocked
/// subscriber delays at most its own shard for one sink call.
///
/// Thread-safety: all public methods are safe to call concurrently. The
/// on_dead callback and subscriber sinks are always invoked *outside* all
/// internal locks, so they may call back into add()/remove()/publish().
class ShardedFanout {
 public:
  /// Delivers one queued item to one subscriber (typically an encode step
  /// followed by a Connection::send with a deadline). Runs on the
  /// subscriber's shard worker thread only, so per-subscriber state owned
  /// by the sink (compression baselines, sequence counters) needs no lock.
  /// Return semantics:
  ///   * ok            — delivered
  ///   * kClosed       — subscriber gone; it is removed and on_dead fires
  ///   * other errors  — data frame: counted dropped (slow consumer missed a
  ///     sample); control frame: treated like kClosed, because control
  ///     traffic is lossless-or-dead.
  using Sink = std::function<Status(const OutboundQueue::Item& item)>;

  /// Sink form for subscribers that only handle pre-encoded shared frames
  /// (most broadcast sites). A source-payload item is not routable to a
  /// bytes sink: it fails delivery as an undeliverable frame.
  using BytesSink = std::function<Status(const Bytes& frame)>;

  /// Batch-aware sink: a consumer's whole drained burst arrives as one
  /// call, so a transport that can coalesce (net::Connection::send_many —
  /// one writev for the burst over TCP) pays one syscall per pass instead
  /// of one per frame. Contract:
  ///   * `delivered` reports how many *leading* items reached the consumer
  ///     when the call returns: all of them on ok; on error, items
  ///     `[0, delivered)` were delivered and item `delivered` is the one
  ///     that failed (per-item failure semantics — drop vs teardown — are
  ///     then applied by the shard worker exactly as for Sink).
  ///   * Items past the failed one are not retried by the sink; the worker
  ///     sheds their data frames and re-attempts their control frames
  ///     individually (control stays lossless-or-dead).
  using BatchSink = std::function<Status(
      std::span<const OutboundQueue::Item> items, std::size_t& delivered)>;

  /// Invoked (outside all fanout locks, possibly from a shard worker or a
  /// publishing thread) after a subscriber has been removed for cause.
  using DeadCallback = std::function<void(std::uint64_t id)>;

  struct Options {
    /// Worker/shard count; 0 picks a conservative default from
    /// hardware_concurrency (at least 1, at most 8).
    std::size_t shards = 0;
    /// Per-subscriber queue bound, in frames.
    std::size_t queue_capacity = 256;
  };

  ShardedFanout(const Options& options, DeadCallback on_dead);
  ~ShardedFanout();
  ShardedFanout(const ShardedFanout&) = delete;
  ShardedFanout& operator=(const ShardedFanout&) = delete;

  /// Joins all shard workers; pending frames are discarded. Idempotent.
  /// Afterwards add()/publish()/send_to() are guarded no-ops (nothing is
  /// registered or enqueued, no callbacks fire); remove() still works.
  void stop();

  /// Registers subscriber `id`. `replay` frames are seeded into the queue
  /// atomically with registration — unconditionally, even past the queue
  /// bound, because replay is required state (schemas, last samples, role)
  /// — so the subscriber observes them strictly before any frame published
  /// after add() returns.
  void add(std::uint64_t id, Sink sink,
           std::vector<OutboundQueue::Item> replay = {});

  /// add() for BytesSink subscribers (see BytesSink).
  void add(std::uint64_t id, BytesSink sink,
           std::vector<OutboundQueue::Item> replay = {});

  /// add() for batch-aware subscribers (see BatchSink).
  void add(std::uint64_t id, BatchSink sink,
           std::vector<OutboundQueue::Item> replay = {});

  /// Deregisters `id`, discarding its pending frames. Idempotent; does not
  /// invoke on_dead. A frame already claimed by the worker may still be
  /// delivered concurrently with (or just after) removal.
  void remove(std::uint64_t id);

  /// Enqueues a copy of `item` to every subscriber under its policy. Never
  /// blocks on consumer I/O.
  void publish(const OutboundQueue::Item& item);

  /// publish() for a pre-encoded shared frame.
  void publish(const FramePtr& frame, OverflowPolicy policy) {
    publish(OutboundQueue::Item{frame, policy, nullptr});
  }

  /// publish() to every subscriber except `excluded_id` — for relays where
  /// the frame's origin is itself a subscriber (a media-bridge client's
  /// upstream frame goes to the group and its *sibling* clients, never
  /// back to the sender).
  void publish_except(std::uint64_t excluded_id,
                      const OutboundQueue::Item& item);

  /// Broadcasts an opaque source payload that each subscriber's sink
  /// encodes for itself at delivery time (per-consumer payloads).
  void publish_source(std::shared_ptr<const void> source,
                      OverflowPolicy policy) {
    publish(OutboundQueue::Item{nullptr, policy, std::move(source)});
  }

  /// Enqueues `item` to subscriber `id` only (unicast — role notices,
  /// replies). Shares ordering with publish(): both go through the same
  /// queue. Returns false when `id` is not subscribed.
  bool send_to(std::uint64_t id, OutboundQueue::Item item);

  /// send_to() for a pre-encoded shared frame.
  bool send_to(std::uint64_t id, FramePtr frame, OverflowPolicy policy) {
    return send_to(id, OutboundQueue::Item{std::move(frame), policy, nullptr});
  }

  std::size_t subscriber_count() const;
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Aggregate counters plus per-shard breakdown; safe to call anytime.
  /// Each shard's delivered and dropped counts are folded in once per
  /// worker pass, at the top of its next loop. A pass still blocked in a
  /// sink (for up to that sink's send deadline) is not counted yet, and
  /// shards fold independently, so a caller waiting on one counter must
  /// not assume the others have settled.
  FanoutStats stats() const;

  /// Shard a subscriber id maps onto (exposed for tests that need to place
  /// two subscribers on distinct shards).
  static std::size_t shard_of(std::uint64_t id, std::size_t shards) noexcept {
    return static_cast<std::size_t>(id % shards);
  }

 private:
  struct Subscriber {
    std::uint64_t id = 0;
    /// All sink forms are stored batch-shaped (per-item sinks are wrapped
    /// in a loop adapter); immutable after add(), called by the shard
    /// worker only.
    BatchSink sink;
    OutboundQueue queue;
    bool doomed = false;  // scheduled for teardown; skip further traffic

    Subscriber(std::uint64_t id_, BatchSink sink_, std::size_t capacity)
        : id(id_), sink(std::move(sink_)), queue(capacity) {}
  };

  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable_any cv;
    std::map<std::uint64_t, std::shared_ptr<Subscriber>> subs;
    std::size_t pending = 0;  ///< total queued frames across subs
    FanoutShardStats stats;
    FrameStageStats stages;  ///< guarded by mutex, like stats
    std::jthread worker;
  };

  void worker_loop(const std::stop_token& st, Shard& shard);
  /// Shared body of publish()/publish_except(); `excluded` is null when
  /// every subscriber receives the item.
  void publish_impl(const OutboundQueue::Item& item,
                    const std::uint64_t* excluded);
  /// Erases `ids` from `shard` and fires on_dead for each; both steps
  /// respect the lock discipline (erase under the shard lock, callback out).
  void disconnect(Shard& shard, const std::vector<std::uint64_t>& ids);
  void account_push(Shard& shard, Subscriber& sub, OutboundQueue::Push result,
                    OverflowPolicy policy,
                    std::vector<std::uint64_t>& doomed);

  Shard& shard_for(std::uint64_t id) noexcept {
    return *shards_[shard_of(id, shards_.size())];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  DeadCallback on_dead_;
  std::size_t queue_capacity_ = 256;
  std::atomic<bool> stopped_{false};
};

}  // namespace cs::common
