#include "net/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "net/frame.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;

struct TcpFixture : ::testing::Test {
  void SetUp() override {
    loop_thread = std::thread([this] { loop.run(); });
    auto accepted_promise = std::make_shared<std::promise<std::shared_ptr<TcpConnection>>>();
    accepted_future = accepted_promise->get_future();
    listener = std::make_unique<TcpListener>(&loop, 0, [this, accepted_promise](int fd) {
      auto conn = TcpConnection::create(&loop, fd, server_cfg);
      conn->start();
      accepted_promise->set_value(conn);
    });
    // Listener registration is posted to the loop; give it a beat.
    std::this_thread::sleep_for(20ms);
    int fd = tcp_connect_blocking(listener->port());
    ASSERT_GE(fd, 0);
    client = TcpConnection::create(&loop, fd, client_cfg);
    client->start();
    ASSERT_EQ(accepted_future.wait_for(2s), std::future_status::ready);
    server = accepted_future.get();
  }

  void TearDown() override {
    if (client) client->close();
    if (server) server->close();
    std::this_thread::sleep_for(20ms);
    listener.reset();
    std::this_thread::sleep_for(20ms);
    loop.stop();
    loop_thread.join();
  }

  /// Drain chunks from `rx` until `n` bytes arrive (or timeout).
  static std::vector<uint8_t> read_n(ChannelReceiver& rx, size_t n) {
    std::vector<uint8_t> out;
    while (out.size() < n) {
      auto chunk = rx.receive(2s);
      if (!chunk) break;
      out.insert(out.end(), chunk->begin(), chunk->end());
    }
    return out;
  }

  ChannelConfig server_cfg{};
  ChannelConfig client_cfg{};
  EventLoop loop;
  std::thread loop_thread;
  std::unique_ptr<TcpListener> listener;
  std::shared_ptr<TcpConnection> client;
  std::shared_ptr<TcpConnection> server;
  std::future<std::shared_ptr<TcpConnection>> accepted_future;
};

TEST_F(TcpFixture, RoundTripSmallMessage) {
  std::vector<uint8_t> msg{1, 2, 3, 4, 5};
  ASSERT_EQ(client->try_send(msg), SendStatus::kOk);
  auto got = read_n(*server, msg.size());
  EXPECT_EQ(got, msg);
}

TEST_F(TcpFixture, BidirectionalTraffic) {
  std::vector<uint8_t> a{10, 11};
  std::vector<uint8_t> b{20, 21, 22};
  ASSERT_EQ(client->try_send(a), SendStatus::kOk);
  ASSERT_EQ(server->try_send(b), SendStatus::kOk);
  EXPECT_EQ(read_n(*server, 2), a);
  EXPECT_EQ(read_n(*client, 3), b);
}

TEST_F(TcpFixture, LargeTransferIsLossless) {
  Xoshiro256 rng(3);
  std::vector<uint8_t> big(2 << 20);
  for (auto& x : big) x = static_cast<uint8_t>(rng.next_u64());
  size_t sent = 0;
  // Shared with the callback, which close() in TearDown fires once more
  // from the loop thread after this frame is gone.
  auto writable = std::make_shared<std::atomic<bool>>(true);
  client->set_writable_callback([writable] { writable->store(true); });

  std::thread reader_thread;
  std::vector<uint8_t> got;
  reader_thread = std::thread([&] { got = read_n(*server, big.size()); });

  while (sent < big.size()) {
    size_t chunk = std::min<size_t>(big.size() - sent, 64 * 1024);
    auto s = client->try_send(std::span(big.data() + sent, chunk));
    if (s == SendStatus::kOk) {
      sent += chunk;
    } else if (s == SendStatus::kBlocked) {
      writable->store(false);
      while (!writable->load()) std::this_thread::yield();
    } else {
      FAIL() << "connection closed mid-send";
    }
  }
  reader_thread.join();
  EXPECT_EQ(got, big);
}

TEST_F(TcpFixture, SenderBlocksWhenReceiverStopsDraining) {
  // Small buffers so TCP flow control engages quickly.
  // (Fixture uses defaults; push until blocked.)
  std::vector<uint8_t> chunk(256 * 1024, 0x77);
  SendStatus s = SendStatus::kOk;
  int sends = 0;
  while (sends < 1024) {
    s = client->try_send(chunk);
    if (s != SendStatus::kOk) break;
    ++sends;
  }
  // The receiver never drains, so within the default budgets the sender
  // must eventually observe kBlocked (kernel buffers + inbound cap fill).
  EXPECT_EQ(s, SendStatus::kBlocked);

  // Draining the receiver eventually restores writability. The flag is
  // shared with the callback, which close() in TearDown fires once more
  // from the loop thread after this frame is gone.
  auto writable = std::make_shared<std::atomic<bool>>(false);
  client->set_writable_callback([writable] { writable->store(true); });
  while (auto c = server->try_receive()) {
  }
  for (int i = 0; i < 400 && !writable->load(); ++i) {
    std::this_thread::sleep_for(5ms);
    while (auto c = server->try_receive()) {
    }
  }
  EXPECT_TRUE(writable->load());
}

TEST_F(TcpFixture, CloseIsSynchronousAndIdempotent) {
  // Regression: close() used to defer the closed_ flip to the loop thread,
  // so a send racing a cross-thread close could still enqueue bytes into a
  // dying connection. closed() must hold the moment close() returns, from
  // any thread, and double-close must be harmless.
  client->close();
  EXPECT_TRUE(client->closed());
  std::vector<uint8_t> msg{1, 2, 3};
  EXPECT_EQ(client->try_send(msg), SendStatus::kClosed);
  client->close();  // idempotent
  EXPECT_TRUE(client->closed());
}

TEST_F(TcpFixture, ConcurrentSendAndCloseDoNotRace) {
  // Hammer try_send from two threads while a third closes the connection;
  // every sender must settle on kClosed promptly and nothing may crash or
  // deadlock (run under -DNEPTUNE_SANITIZE to check the old race).
  std::atomic<int> settled{0};
  auto hammer = [&] {
    std::vector<uint8_t> chunk(4096, 0x42);
    for (int i = 0; i < 200'000; ++i) {
      if (client->try_send(chunk) == SendStatus::kClosed) break;
      if ((i & 0xFF) == 0) std::this_thread::yield();
    }
    settled.fetch_add(1);
  };
  std::thread t1(hammer), t2(hammer);
  std::this_thread::sleep_for(5ms);
  client->close();
  t1.join();
  t2.join();
  EXPECT_EQ(settled.load(), 2);
  EXPECT_TRUE(client->closed());
  EXPECT_EQ(client->try_send(std::vector<uint8_t>{9}), SendStatus::kClosed);
}

TEST_F(TcpFixture, PeerCloseObservedAsEndOfStream) {
  std::vector<uint8_t> msg{42};
  ASSERT_EQ(client->try_send(msg), SendStatus::kOk);
  auto got = read_n(*server, 1);
  ASSERT_EQ(got, msg);
  client->close();
  // Server eventually reports closed-and-drained; sends fail.
  for (int i = 0; i < 400 && !server->closed(); ++i) {
    std::this_thread::sleep_for(5ms);
    while (server->try_receive()) {
    }
  }
  EXPECT_TRUE(server->closed());
  EXPECT_EQ(server->try_send(msg), SendStatus::kClosed);
}

TEST_F(TcpFixture, FramesSurviveTcpChunking) {
  // Send many frames; reassemble via FrameDecoder on the receiving side.
  constexpr int kFrames = 200;
  ByteBuffer wire;
  for (int i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> payload(100 + static_cast<size_t>(i), static_cast<uint8_t>(i));
    FrameHeader h;
    h.link_id = static_cast<uint32_t>(i);
    h.raw_size = static_cast<uint32_t>(payload.size());
    h.batch_count = 1;
    encode_frame(h, payload, wire);
  }
  ASSERT_EQ(client->try_send(wire.contents()), SendStatus::kOk);

  FrameDecoder dec;
  int got = 0;
  while (got < kFrames) {
    auto chunk = server->receive(2s);
    ASSERT_TRUE(chunk.has_value()) << "timed out after " << got << " frames";
    auto s = dec.feed(*chunk, [&](const FrameHeader& h, std::span<const uint8_t> p) {
      EXPECT_EQ(h.link_id, static_cast<uint32_t>(got));
      EXPECT_EQ(p.size(), 100u + static_cast<size_t>(got));
      ++got;
    });
    ASSERT_TRUE(s == FrameDecodeStatus::kNeedMore || s == FrameDecodeStatus::kFrame);
  }
  EXPECT_EQ(got, kFrames);
}

TEST(TcpStandalone, ConnectToClosedPortFails) {
  int fd = tcp_connect_blocking(1, /*timeout_ms=*/100);  // port 1: nothing listening
  EXPECT_LT(fd, 0);
}

// --- zero-copy paths: framed receive + pinned scatter-gather send -----------

/// Fixture variant with the server carving wire frames at the socket.
struct FramedTcpFixture : TcpFixture {
  FramedTcpFixture() { server_cfg.framed_rx = true; }

  /// One wire frame with a deterministic payload derived from `seq`.
  static FrameBufRef make_frame(uint32_t seq, size_t payload_bytes) {
    std::vector<uint8_t> payload(payload_bytes);
    for (size_t i = 0; i < payload.size(); ++i)
      payload[i] = static_cast<uint8_t>(seq * 131 + i);
    FrameHeader h;
    h.link_id = seq;
    h.batch_count = 1;
    h.raw_size = static_cast<uint32_t>(payload.size());
    FrameBufRef wire = FrameBufPool::global().acquire();
    encode_frame(h, payload, wire->buffer());
    return wire;
  }

  static void expect_frame(const FrameBufRef& view, uint32_t seq, size_t payload_bytes) {
    FrameDecodeStatus s;
    auto f = decode_whole_frame(view.contents(), &s);
    ASSERT_TRUE(f.has_value()) << "view is not exactly one frame (seq " << seq << ")";
    EXPECT_EQ(f->header.link_id, seq);
    ASSERT_EQ(f->payload.size(), payload_bytes);
    for (size_t i = 0; i < f->payload.size(); ++i)
      ASSERT_EQ(f->payload[i], static_cast<uint8_t>(seq * 131 + i)) << "byte " << i;
  }

  /// try_send with kBlocked retry (the receiver-side test thread drains).
  void send_pinned(const FrameBufRef& frame) {
    for (;;) {
      SendStatus s = client->try_send(frame);
      if (s == SendStatus::kOk) return;
      ASSERT_EQ(s, SendStatus::kBlocked);
      std::this_thread::sleep_for(1ms);
    }
  }
};

TEST_F(FramedTcpFixture, FramedRxDeliversWholeCarvedFrames) {
  // Many frames of varying sizes sent as one blob: the server must hand back
  // one exactly-one-frame view per frame, in order, byte-exact — no
  // FrameDecoder needed on the receiving side.
  constexpr uint32_t kFrames = 300;
  ByteBuffer wire;
  for (uint32_t i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> payload(1 + i, 0);
    for (size_t j = 0; j < payload.size(); ++j)
      payload[j] = static_cast<uint8_t>(i * 131 + j);
    FrameHeader h;
    h.link_id = i;
    h.batch_count = 1;
    h.raw_size = static_cast<uint32_t>(payload.size());
    encode_frame(h, payload, wire);
  }
  ASSERT_EQ(client->try_send(wire.contents()), SendStatus::kOk);

  uint32_t got = 0;
  while (got < kFrames) {
    auto view = server->receive_buf(2s);
    ASSERT_TRUE(view.has_value()) << "timed out after " << got << " frames";
    expect_frame(*view, got, 1 + got);
    ++got;
  }
}

TEST_F(FramedTcpFixture, PinnedFrameSendSkipsTheStagingCopy) {
  TcpTransportStats& ts = TcpTransportStats::global();
  const uint64_t tx_copies0 = ts.tx_copies.load();
  const uint64_t tx_frames0 = ts.tx_frames.load();

  constexpr uint32_t kFrames = 100;
  for (uint32_t i = 0; i < kFrames; ++i) send_pinned(make_frame(i, 64));
  for (uint32_t i = 0; i < kFrames; ++i) {
    auto view = server->receive_buf(2s);
    ASSERT_TRUE(view.has_value()) << "timed out after " << i << " frames";
    expect_frame(*view, i, 64);
  }

  EXPECT_EQ(ts.tx_frames.load() - tx_frames0, kFrames);
  EXPECT_EQ(ts.tx_copies.load() - tx_copies0, 0u);  // never staged via the span path
  // sendmsg gathered at least one iovec per call; with the burst enqueued
  // faster than the wire drains it, strictly more on average.
  EXPECT_GE(ts.sendmsg_iovecs.load(), ts.sendmsg_calls.load());
}

TEST_F(FramedTcpFixture, PartialWritesMidIovecPreserveByteStream) {
  // Force short writes and EAGAIN mid-drain: shrink the kernel send buffer,
  // then enqueue far more pinned frames than it holds while the receiver
  // drains slowly. The retire loop must track partial-frame offsets across
  // sendmsg calls, and the carve must reassemble frames that straddle recv
  // chunk boundaries — including one frame larger than the 256 KB chunk.
  int small = 4096;
  ASSERT_EQ(setsockopt(client->fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);

  constexpr uint32_t kFrames = 2000;
  constexpr size_t kPayload = 1000;
  constexpr uint32_t kBigSeq = 1000;             // one oversized frame mid-stream
  constexpr size_t kBigPayload = 300 * 1024;     // > kRxChunkBytes

  const uint64_t rx_copies0 = TcpTransportStats::global().rx_copies.load();

  std::thread sender([&] {
    for (uint32_t i = 0; i < kFrames; ++i)
      send_pinned(make_frame(i, i == kBigSeq ? kBigPayload : kPayload));
  });

  for (uint32_t i = 0; i < kFrames; ++i) {
    auto view = server->receive_buf(5s);
    ASSERT_TRUE(view.has_value()) << "timed out after " << i << " frames";
    expect_frame(*view, i, i == kBigSeq ? kBigPayload : kPayload);
    if ((i & 0x3F) == 0) std::this_thread::sleep_for(1ms);  // keep the window tight
  }
  sender.join();

  // 2 MB through 256 KB chunks: some frames straddled chunk boundaries and
  // were spliced forward — the counter must have seen them.
  EXPECT_GT(TcpTransportStats::global().rx_copies.load(), rx_copies0);
}

TEST_F(FramedTcpFixture, CorruptHeaderFallsBackToRawDelivery) {
  // framed_rx trusts the peer to send wire frames; if the stream turns out
  // not to be framed, the connection must not spin or drop bytes — it falls
  // back to raw chunk delivery so the consumer's own decoder can report the
  // corruption.
  std::vector<uint8_t> garbage(64, 0xFF);
  ASSERT_EQ(client->try_send(garbage), SendStatus::kOk);
  std::vector<uint8_t> got;
  while (got.size() < garbage.size()) {
    auto view = server->receive_buf(2s);
    ASSERT_TRUE(view.has_value());
    got.insert(got.end(), view->contents().begin(), view->contents().end());
  }
  EXPECT_EQ(got, garbage);
}

}  // namespace
}  // namespace neptune
