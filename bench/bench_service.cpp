// Service commit-path bench: in-process loopback throughput of
// ReplicaGroup::commit, no sockets and no client threads — the server-side
// ceiling the service plane can reach once network I/O is off the table.
// The table sweeps batch size and reports commands/sec plus the per-slot
// consensus cost. Every cell commits the same command sequence, so every
// cell must reproduce the first cell's log digest — batching changes
// throughput, never the log. --json=PATH captures the rows in the
// BENCH_*.json artifact schema.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "service/replica.hpp"
#include "table_main.hpp"

namespace lft::bench {
namespace {

using service::Command;
using service::ReplicaGroup;

std::vector<Command> make_batch(std::uint64_t& next_request, std::size_t batch_size) {
  std::vector<Command> batch;
  batch.reserve(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    Command cmd;
    cmd.client_id = 1 + (next_request % 8);
    cmd.request_id = 1 + next_request / 8;
    cmd.payload.resize(16, std::byte{0x5a});
    batch.push_back(std::move(cmd));
    ++next_request;
  }
  return batch;
}

struct CellResult {
  double wall_ms = 0.0;
  double commands_per_s = 0.0;
  double slot_us = 0.0;  ///< mean wall time per consensus slot
  std::uint64_t digest = 0;
  std::uint64_t slots = 0;
};

/// Commits `commands` commands in batches of `batch_size`, one slot each.
CellResult run_cell(std::size_t batch_size, std::uint64_t commands) {
  ReplicaGroup group;
  std::uint64_t next_request = 0;
  const WallTimer timer;
  while (next_request < commands) {
    const auto result = group.commit(make_batch(next_request, batch_size));
    benchmark::DoNotOptimize(result.applied.size());
  }
  CellResult cell;
  cell.wall_ms = timer.ms();
  cell.commands_per_s =
      cell.wall_ms > 0.0 ? static_cast<double>(commands) / (cell.wall_ms / 1000.0) : 0.0;
  cell.slots = group.slots();
  cell.slot_us = group.slots() > 0
                     ? cell.wall_ms * 1000.0 / static_cast<double>(group.slots())
                     : 0.0;
  cell.digest = group.machine().digest();
  return cell;
}

void print_service_table(JsonRows* json) {
  banner("service commit path",
         "loopback ReplicaGroup::commit throughput (commands/sec) by batch size; every "
         "cell must reproduce the first cell's log digest");
  // Each batch size divides the command count, so every cell commits the
  // same command sequence.
  static const std::size_t kBatches[] = {64, 256, 1024};
  const std::uint64_t commands = 1 << 16;

  Table table({"batch", "slots", "wall_ms", "cmds_per_s", "slot_us", "digest_ok"});
  table.print_header();
  std::uint64_t reference_digest = 0;
  for (const std::size_t batch : kBatches) {
    const CellResult cell = run_cell(batch, commands);
    if (batch == kBatches[0]) reference_digest = cell.digest;
    const bool digest_ok = cell.digest == reference_digest;
    table.cell(static_cast<std::int64_t>(batch));
    table.cell(static_cast<std::int64_t>(cell.slots));
    table.cell(cell.wall_ms);
    table.cell(cell.commands_per_s);
    table.cell(cell.slot_us);
    table.cell(std::string(digest_ok ? "yes" : "NO"));
    table.end_row();
    if (json != nullptr) {
      json->begin_row();
      // Per-cell bench name + items_per_second keep the rows renderable as
      // a bench/history/ series by scripts/bench_report.py.
      json->field("bench", std::string("service_commit/b") + std::to_string(batch));
      json->field("simd", std::string("service"));
      json->field("batch", static_cast<std::int64_t>(batch));
      json->field("commands", static_cast<std::int64_t>(commands));
      json->field("slots", static_cast<std::int64_t>(cell.slots));
      json->field("wall_ms", cell.wall_ms);
      json->field("cmds_per_s", cell.commands_per_s);
      json->field("items_per_second", cell.commands_per_s);
      json->field("slot_us", cell.slot_us);
      json->field("ok", std::string(digest_ok ? "yes" : "NO"));
    }
    if (!digest_ok) {
      std::fprintf(stderr, "digest mismatch at batch %zu\n", batch);
      std::exit(1);
    }
  }
}

/// google-benchmark twin of the table: one commit of state.range(0)
/// commands per iteration.
void bm_commit(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  ReplicaGroup group;
  std::uint64_t next_request = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.commit(make_batch(next_request, batch)).applied.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(bm_commit)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lft::bench

int main(int argc, char** argv) {
  return lft::bench::table_main(argc, argv,
                                [](lft::bench::JsonRows* json) {
                                  lft::bench::print_service_table(json);
                                });
}
