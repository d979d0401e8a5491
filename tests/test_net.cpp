// The net plane's building blocks: the EpollLoop readiness contract and
// ready-list drain, and the ByteRing output buffer the buffered sessions
// flush through writev.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <vector>

#include "net/epoll.hpp"
#include "net/ring.hpp"
#include "net/socket.hpp"

namespace lft::net {
namespace {

// ---- ByteRing ---------------------------------------------------------------

std::vector<std::byte> ring_contents(const ByteRing& ring) {
  std::vector<std::byte> out;
  for (const auto span : ring.readable()) {
    out.insert(out.end(), span.begin(), span.end());
  }
  return out;
}

TEST(ByteRing, PreservesByteOrderAcrossWrapAround) {
  ByteRing ring;
  std::vector<std::byte> expect;
  std::uint8_t next_in = 0;
  std::size_t consumed = 0;

  // Interleave appends and partial consumes with chunk sizes chosen to force
  // head_ far from zero and appends that wrap past the buffer end.
  for (int cycle = 0; cycle < 200; ++cycle) {
    std::vector<std::byte> chunk(static_cast<std::size_t>(37 + 61 * (cycle % 13)));
    for (auto& b : chunk) b = std::byte{next_in++};
    ring.append(chunk);
    expect.insert(expect.end(), chunk.begin(), chunk.end());

    const std::size_t take = (ring.size() * static_cast<std::size_t>(cycle % 3)) / 3;
    ASSERT_EQ(ring_contents(ring),
              std::vector<std::byte>(expect.begin() + static_cast<std::ptrdiff_t>(consumed),
                                     expect.end()));
    ring.consume(take);
    consumed += take;
  }
  ring.consume(ring.size());
  EXPECT_TRUE(ring.empty());
}

TEST(ByteRing, ReadableSplitsIntoAtMostTwoSpans) {
  ByteRing ring;
  // Fill, drain most, refill: the readable window must wrap and come back
  // as exactly two non-empty spans totalling size().
  std::vector<std::byte> chunk(3000, std::byte{0xab});
  ring.append(chunk);
  ring.consume(2900);
  ring.append(chunk);  // wraps in the 4096-byte initial buffer
  const auto spans = ring.readable();
  EXPECT_FALSE(spans[0].empty());
  EXPECT_EQ(spans[0].size() + spans[1].size(), ring.size());
  EXPECT_EQ(ring.size(), 100u + 3000u);
}

// ---- EpollLoop: the readiness contract the server relies on ----------------

TEST(EpollLoop, DispatchesReadableAndHonorsRemove) {
  EpollLoop loop;
  int pipe_fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(pipe_fds), 0);
  int fired = 0;
  std::uint32_t last_events = 0;
  loop.add(pipe_fds[0], EPOLLIN, [&](std::uint32_t events) {
    ++fired;
    last_events = events;
  });
  EXPECT_EQ(loop.watched(), 1u);

  // Nothing readable yet: a poll dispatches nothing.
  EXPECT_EQ(loop.wait(0), 0);
  EXPECT_EQ(fired, 0);

  ASSERT_EQ(::write(pipe_fds[1], "x", 1), 1);
  EXPECT_EQ(loop.wait(1000), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_NE(last_events & EPOLLIN, 0u);

  // Still readable (the byte was not drained): dispatches again.
  EXPECT_EQ(loop.wait(1000), 1);
  EXPECT_EQ(fired, 2);

  loop.remove(pipe_fds[0]);
  EXPECT_EQ(loop.watched(), 0u);
  EXPECT_EQ(loop.wait(0), 0);
  EXPECT_EQ(fired, 2);

  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST(EpollLoop, ModifySwitchesTheWatchedEvents) {
  EpollLoop loop;
  int pipe_fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(pipe_fds), 0);
  int fired = 0;
  std::uint32_t last_events = 0;
  // Watch the WRITE end for readability — a pipe write end is never
  // readable, so nothing fires until modify() switches to EPOLLOUT.
  loop.add(pipe_fds[1], EPOLLIN, [&](std::uint32_t events) {
    ++fired;
    last_events = events;
  });
  EXPECT_EQ(loop.wait(0), 0);

  loop.modify(pipe_fds[1], EPOLLOUT);
  EXPECT_EQ(loop.wait(1000), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_NE(last_events & EPOLLOUT, 0u);

  loop.remove(pipe_fds[1]);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST(EpollLoop, CallbackMayRemoveItself) {
  EpollLoop loop;
  int pipe_fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(pipe_fds), 0);
  int fired = 0;
  loop.add(pipe_fds[0], EPOLLIN, [&](std::uint32_t) {
    ++fired;
    loop.remove(pipe_fds[0]);
  });
  ASSERT_EQ(::write(pipe_fds[1], "x", 1), 1);
  EXPECT_EQ(loop.wait(1000), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.watched(), 0u);
  EXPECT_EQ(loop.wait(0), 0);
  EXPECT_EQ(fired, 1);

  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

// ---- EpollLoop ready-list drain ---------------------------------------------

TEST(EpollLoopDrain, DispatchesMoreReadyFdsThanOneWaitBatch) {
  // Regression test for the fixed 64-event wait array: with more than 64
  // fds ready at once, a single wait() must dispatch every one — the late
  // fds must not wait for the caller's next loop iteration. Callbacks
  // drain their fd, as every server callback does.
  constexpr int kPipes = 80;  // > the 64-event epoll_wait batch
  EpollLoop loop;
  std::vector<std::array<int, 2>> pipes(kPipes);
  std::vector<int> fires(kPipes, 0);
  for (int i = 0; i < kPipes; ++i) {
    auto& p = pipes[static_cast<std::size_t>(i)];
    ASSERT_EQ(::pipe(p.data()), 0);
    ASSERT_EQ(::write(p[1], "x", 1), 1);
    loop.add(p[0], EPOLLIN, [&fires, i, fd = p[0]](std::uint32_t) {
      ++fires[static_cast<std::size_t>(i)];
      char drained = 0;
      (void)::read(fd, &drained, 1);
    });
  }
  EXPECT_EQ(loop.wait(0), kPipes);
  for (int i = 0; i < kPipes; ++i) {
    EXPECT_EQ(fires[static_cast<std::size_t>(i)], 1) << "pipe " << i;
  }
  for (auto& p : pipes) {
    loop.remove(p[0]);
    ::close(p[0]);
    ::close(p[1]);
  }
}

}  // namespace
}  // namespace lft::net
