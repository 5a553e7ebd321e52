// Single-producer / single-consumer shared-memory byte ring — the v3
// pool protocol's data plane.
//
// The supervisor creates one ring per worker slot *before* forking; the
// worker inherits the mapping (fork-without-exec), so both sides address
// the same physical pages with no serialization of the mapping itself.
// The worker is the only writer, the supervisor the only reader:
//
//   [ Header: head (reader cursor) | tail (writer cursor) | capacity ]
//   [ data: capacity bytes, addressed modulo capacity ]
//
// head/tail are monotonically increasing byte counters (they never wrap;
// the data offset is `counter & (capacity - 1)`), published with
// release stores and observed with acquire loads, so a chunk's bytes are
// visible before the cursor that announces them.
//
// Messages are split into chunks, each preceded by a fixed header:
//
//   [u64 seq][u32 len][u32 flags]   flags = 0x52500000 | (MORE? 1 : 0)
//
// `seq` is a per-ring monotonic chunk counter stamped by the writer and
// checked by the reader: any desynchronization — a torn or replayed
// write, a scribble over unread bytes, a buggy cursor — shows up as a
// seq/magic/length violation and latches the ring Corrupt, after which
// the supervisor condemns the worker exactly like a CRC-failed frame.
// Chunks may wrap the buffer edge byte-wise (copies split in two).
//
// Backpressure: a writer that is ahead of the reader *blocks* (yield,
// then millisecond sleeps) until space frees or the ring is closed — it
// never drops or overwrites. Chunking bounds the wait: a message larger
// than the ring drains incrementally as the supervisor consumes chunks.
//
// The Doorbell tells the supervisor's poll loop that chunks are
// available: an eventfd where available, else a nonblocking pipe byte.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace rperf::sandbox {

/// Wakes the supervisor's poll loop when ring chunks are published.
class Doorbell {
 public:
  /// Create an eventfd doorbell, falling back to a pipe pair. Returns
  /// nullptr only if both fail (fd exhaustion).
  static std::unique_ptr<Doorbell> create();
  ~Doorbell();

  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Writer side: signal "data available". Async-signal-safe, never
  /// blocks (a saturated eventfd/pipe already guarantees a wakeup).
  void ring() noexcept;

  /// Reader side: consume pending signals so poll() goes quiet until the
  /// next ring(). Returns true if at least one signal was pending.
  bool drain() noexcept;

  /// Fd for the supervisor's poll set (readable <=> ring() since the
  /// last drain()).
  [[nodiscard]] int poll_fd() const noexcept { return rfd_; }

 private:
  Doorbell(int rfd, int wfd, bool eventfd)
      : rfd_(rfd), wfd_(wfd), is_eventfd_(eventfd) {}
  int rfd_ = -1;   ///< read/poll end (same fd as wfd_ for eventfd)
  int wfd_ = -1;   ///< write end
  bool is_eventfd_ = false;
};

/// SPSC shared-memory chunk ring (see file comment for the layout).
class ShmRing {
 public:
  /// Chunk-flag constants: high 16 bits are a magic tag, low bit marks
  /// "message continues in the next chunk".
  static constexpr std::uint32_t kFlagMagic = 0x52500000u;  // "RP"<<16
  static constexpr std::uint32_t kFlagMagicMask = 0xFFFF0000u;
  static constexpr std::uint32_t kFlagMore = 0x1u;

  /// Largest single chunk payload. Messages bigger than this are split;
  /// the cap also guarantees a chunk always fits in the smallest ring.
  static constexpr std::size_t kMaxChunkPayload = 64u << 10;

  /// Map a new ring with `capacity` data bytes (power of two, >= 4096).
  /// Backed by memfd_create when available, anonymous shared memory
  /// otherwise. Returns nullptr on failure (caller falls back to inline
  /// payloads in pipe frames).
  static std::unique_ptr<ShmRing> create(std::size_t capacity);
  ~ShmRing();

  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;

  // -- writer (worker) side ------------------------------------------

  /// Append one message, chunking as needed, blocking while the ring is
  /// full. `bell` (optional) is rung after every published chunk so the
  /// reader can drain mid-message — without it a message larger than the
  /// ring would deadlock against a reader that only wakes per message.
  /// Returns false if the ring was closed while waiting (the supervisor
  /// is gone — the worker should exit, not spin).
  bool write_message(const void* data, std::size_t n,
                     Doorbell* bell = nullptr) noexcept;

  // -- reader (supervisor) side --------------------------------------

  enum class ReadStatus {
    None,     ///< no complete chunk published yet
    Chunk,    ///< one chunk popped; `more` says the message continues
    Corrupt,  ///< structural violation — latched, ring is dead
  };

  /// Nonblocking: pop the next chunk's payload (appended to `out`).
  ReadStatus read_chunk(std::string& out, bool& more) noexcept;

  /// True once a violation latched the ring Corrupt.
  [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }

  /// Mark the ring closed (unblocks a waiting writer with failure).
  void close() noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Bytes currently published but unread (test/diagnostic aid).
  [[nodiscard]] std::size_t readable() const noexcept;

  // -- test hooks ----------------------------------------------------

  /// Stamp the next written chunk with a wrong sequence number — the
  /// ring-transport analogue of frame_encode(corrupt_crc=true), used by
  /// the protocorrupt wire fault and the torn-write tests.
  void corrupt_next_chunk() noexcept { corrupt_next_ = true; }

 private:
  struct Header {
    std::atomic<std::uint64_t> head;  ///< reader cursor (bytes consumed)
    char pad0[64 - sizeof(std::atomic<std::uint64_t>)];
    std::atomic<std::uint64_t> tail;  ///< writer cursor (bytes published)
    char pad1[64 - sizeof(std::atomic<std::uint64_t>)];
    std::atomic<std::uint32_t> closed;
    char pad2[64 - sizeof(std::atomic<std::uint32_t>)];
    std::uint64_t capacity;
  };

  struct ChunkHeader {
    std::uint64_t seq;
    std::uint32_t len;
    std::uint32_t flags;
  };
  static_assert(sizeof(ChunkHeader) == 16, "chunk header is fixed-width");

  ShmRing(void* mem, std::size_t capacity, std::size_t map_bytes);

  void copy_in(std::uint64_t pos, const void* src, std::size_t n) noexcept;
  void copy_out(std::uint64_t pos, void* dst, std::size_t n) const noexcept;
  bool wait_for_space(std::size_t need) noexcept;

  Header* hdr_ = nullptr;
  unsigned char* data_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t map_bytes_ = 0;

  std::uint64_t write_seq_ = 0;   ///< writer-side next chunk seq
  std::uint64_t expect_seq_ = 0;  ///< reader-side expected chunk seq
  bool corrupt_ = false;
  bool corrupt_next_ = false;
};

namespace ring_testing {
/// Make the next `n` ShmRing::create calls fail, to exercise the
/// ring-unavailable -> pipe-frame carrier degradation path.
void fail_next_creates(int n);
}  // namespace ring_testing

}  // namespace rperf::sandbox
