// Fixture: capture-escape positive in a lambda handed to checkpointed_map —
// a default by-reference capture smuggles the caller's frame onto workers.
namespace tspu::measure {

int drive_checkpointed_captures(int jobs, const runner::CheckpointOptions& opts) {
  int offset = 3;
  auto rows = runner::checkpointed_map(
      8, jobs, [](int shard) { return shard; },
      [&](int&, std::size_t i) { return static_cast<int>(i) + offset; },
      IntCodec{}, opts);
  return static_cast<int>(rows.size());
}

}  // namespace tspu::measure
