#include "io/interchange.hpp"

#include <stdexcept>
#include <utility>

namespace powerlens::io {

namespace {

// Smallest possible encoded layer: type byte, empty name, 17 i64 fields
// (shapes, costs, conv, attn). Used as the per-element floor when guarding
// the layer-count field against forged huge values.
constexpr std::size_t kMinLayerBytes = 1 + 4 + 17 * 8;

// Re-types standard-library validation failures (Graph/PowerView
// constructors, Graph::validate) raised while assembling objects from a
// checksum-valid payload.
template <typename Fn>
auto as_malformed(const char* what, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const Error&) {
    throw;  // already typed
  } catch (const std::logic_error& e) {
    throw MalformedError(std::string(what) + ": " + e.what());
  }
}

// Rejects bytes after the first record — the single-record decoders' strict
// framing (multi-record streams use parse_record directly).
void expect_single_record(const RecordView& view,
                          std::span<const std::byte> record) {
  if (view.total_size != record.size()) {
    throw MalformedError("trailing bytes after the record");
  }
}

// --- Graph payload ---

void encode_shape(Writer& w, const dnn::TensorShape& s) {
  w.i64(s.n);
  w.i64(s.c);
  w.i64(s.h);
  w.i64(s.w);
}

dnn::TensorShape decode_shape(Cursor& c) {
  dnn::TensorShape s;
  s.n = c.i64();
  s.c = c.i64();
  s.h = c.i64();
  s.w = c.i64();
  return s;
}

std::vector<std::byte> encode_graph_payload(const dnn::Graph& graph) {
  Writer w;
  w.str(graph.name());
  w.u64(graph.size());
  for (const dnn::Layer& l : graph.layers()) {
    w.u8(static_cast<std::uint8_t>(l.type));
    w.str(l.name);
    encode_shape(w, l.input);
    encode_shape(w, l.output);
    w.i64(l.flops);
    w.i64(l.params);
    w.i64(l.mem_bytes);
    w.i64(l.conv.kernel_h);
    w.i64(l.conv.kernel_w);
    w.i64(l.conv.stride);
    w.i64(l.conv.padding);
    w.i64(l.conv.groups);
    w.i64(l.conv.filters);
    w.i64(l.attn.heads);
    w.i64(l.attn.embed_dim);
    w.i64(l.attn.head_dim);
    w.i64(l.attn.seq_len);
  }
  for (dnn::NodeId id = 0; id < graph.size(); ++id) {
    const auto producers = graph.producers(id);
    w.u64(producers.size());
    for (dnn::NodeId p : producers) w.u64(p);
  }
  return w.take();
}

dnn::Graph decode_graph_payload(std::span<const std::byte> payload) {
  Cursor c(payload);
  std::string name = c.str();
  const std::uint64_t n = c.count(kMinLayerBytes);
  std::vector<dnn::Layer> layers;
  layers.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    dnn::Layer l;
    const std::uint8_t raw_type = c.u8();
    if (raw_type >= static_cast<std::uint8_t>(dnn::OpType::kCount_)) {
      throw MalformedError("graph layer " + std::to_string(i) +
                           " has unknown op type " + std::to_string(raw_type));
    }
    l.type = static_cast<dnn::OpType>(raw_type);
    l.name = c.str();
    l.input = decode_shape(c);
    l.output = decode_shape(c);
    l.flops = c.i64();
    l.params = c.i64();
    l.mem_bytes = c.i64();
    l.conv.kernel_h = c.i64();
    l.conv.kernel_w = c.i64();
    l.conv.stride = c.i64();
    l.conv.padding = c.i64();
    l.conv.groups = c.i64();
    l.conv.filters = c.i64();
    l.attn.heads = c.i64();
    l.attn.embed_dim = c.i64();
    l.attn.head_dim = c.i64();
    l.attn.seq_len = c.i64();
    layers.push_back(std::move(l));
  }
  std::vector<std::vector<dnn::NodeId>> producers(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t edges = c.count(8);
    producers[i].reserve(edges);
    for (std::uint64_t e = 0; e < edges; ++e) {
      producers[i].push_back(static_cast<dnn::NodeId>(c.u64()));
    }
  }
  c.expect_done("graph payload");
  return as_malformed("graph", [&] {
    dnn::Graph g(std::move(name), std::move(layers), std::move(producers));
    g.validate();
    return g;
  });
}

// --- Plan payload ---

std::vector<std::byte> encode_plan_payload(const core::OptimizationPlan& plan,
                                           std::uint64_t graph_signature) {
  Writer w;
  w.u64(graph_signature);
  w.f64(plan.hyper.eps);
  w.u64(plan.hyper.min_pts);
  w.u64(plan.view.num_layers());
  w.u64(plan.view.block_count());
  for (const clustering::PowerBlock& b : plan.view.blocks()) {
    w.u64(b.begin);
    w.u64(b.end);
  }
  w.u64(plan.block_levels.size());
  for (std::size_t level : plan.block_levels) w.u64(level);
  for (const auto* points : {&plan.schedule.points, &plan.schedule.cpu_points}) {
    w.u64(points->size());
    for (const hw::PresetPoint& p : *points) {
      w.u64(p.layer_index);
      w.u64(p.gpu_level);
    }
  }
  w.f64(plan.predicted_pass_time_s);
  w.f64(plan.predicted_pass_energy_j);
  return w.take();
}

std::vector<hw::PresetPoint> decode_preset_points(Cursor& c,
                                                  const char* what) {
  const std::uint64_t n = c.count(16);
  std::vector<hw::PresetPoint> points;
  points.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    hw::PresetPoint p;
    p.layer_index = static_cast<std::size_t>(c.u64());
    p.gpu_level = static_cast<std::size_t>(c.u64());
    if (!points.empty() && p.layer_index <= points.back().layer_index) {
      throw MalformedError(std::string(what) +
                           " preset points are not strictly increasing");
    }
    points.push_back(p);
  }
  return points;
}

PlanRecord decode_plan_payload(std::span<const std::byte> payload) {
  Cursor c(payload);
  PlanRecord out;
  out.graph_signature = c.u64();
  out.plan.hyper.eps = c.f64();
  out.plan.hyper.min_pts = static_cast<std::size_t>(c.u64());
  const std::uint64_t num_layers = c.u64();
  const std::uint64_t num_blocks = c.count(16);
  std::vector<clustering::PowerBlock> blocks;
  blocks.reserve(num_blocks);
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    clustering::PowerBlock b;
    b.begin = static_cast<std::size_t>(c.u64());
    b.end = static_cast<std::size_t>(c.u64());
    blocks.push_back(b);
  }
  if (num_blocks == 0 && num_layers == 0) {
    out.plan.view = clustering::PowerView();  // untrained / hand-built plans
  } else {
    out.plan.view = as_malformed("plan view", [&] {
      return clustering::PowerView(std::move(blocks),
                                   static_cast<std::size_t>(num_layers));
    });
  }
  const std::uint64_t num_levels = c.count(8);
  if (num_levels != out.plan.view.block_count()) {
    throw MalformedError("plan has " + std::to_string(num_levels) +
                         " block levels for " +
                         std::to_string(out.plan.view.block_count()) +
                         " blocks");
  }
  out.plan.block_levels.reserve(num_levels);
  for (std::uint64_t i = 0; i < num_levels; ++i) {
    out.plan.block_levels.push_back(static_cast<std::size_t>(c.u64()));
  }
  out.plan.schedule.points = decode_preset_points(c, "gpu");
  out.plan.schedule.cpu_points = decode_preset_points(c, "cpu");
  out.plan.predicted_pass_time_s = c.f64();
  out.plan.predicted_pass_energy_j = c.f64();
  c.expect_done("plan payload");
  return out;
}

}  // namespace

// --- Graph records ---

std::vector<std::byte> encode_graph(const dnn::Graph& graph) {
  return frame_record(RecordType::kGraph, encode_graph_payload(graph));
}

dnn::Graph decode_graph(std::span<const std::byte> record) {
  const RecordView view = parse_record(record, RecordType::kGraph);
  expect_single_record(view, record);
  return decode_graph_payload(view.payload);
}

void save_graph(const std::string& path, const dnn::Graph& graph) {
  write_file(path, encode_graph(graph));
}

dnn::Graph load_graph(const std::string& path) {
  return decode_graph(read_file(path));
}

// --- Plan records ---

std::vector<std::byte> encode_plan(const core::OptimizationPlan& plan,
                                   std::uint64_t graph_signature) {
  return frame_record(RecordType::kPlan,
                      encode_plan_payload(plan, graph_signature));
}

PlanRecord decode_plan(std::span<const std::byte> record) {
  const RecordView view = parse_record(record, RecordType::kPlan);
  expect_single_record(view, record);
  return decode_plan_payload(view.payload);
}

void save_plan(const std::string& path, const core::OptimizationPlan& plan,
               std::uint64_t graph_signature) {
  write_file(path, encode_plan(plan, graph_signature));
}

PlanRecord load_plan(const std::string& path) {
  return decode_plan(read_file(path));
}

void save_plan_snapshot(const std::string& path,
                        std::span<const PlanRecord> records) {
  std::vector<std::byte> bytes;
  for (const PlanRecord& r : records) {
    const std::vector<std::byte> record =
        encode_plan(r.plan, r.graph_signature);
    bytes.insert(bytes.end(), record.begin(), record.end());
  }
  write_file(path, bytes);
}

std::vector<PlanRecord> load_plan_snapshot(const std::string& path) {
  const std::vector<std::byte> bytes = read_file(path);
  std::vector<PlanRecord> records;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::span<const std::byte> rest =
        std::span<const std::byte>(bytes).subspan(pos);
    const RecordView view = parse_record(rest, RecordType::kPlan);
    records.push_back(decode_plan_payload(view.payload));
    pos += view.total_size;
  }
  return records;
}

// --- Cost-table records ---

std::vector<std::byte> encode_cost_table(const hw::CostTable& table) {
  const hw::CostTable::Raw raw = table.raw();
  Writer w;
  w.u64(raw.num_layers);
  w.u64(raw.gpu_levels);
  w.u64(raw.cpu_slot.size());
  for (std::size_t s : raw.cpu_slot) w.u64(s);
  w.u64(raw.cpu_slots);
  w.u64(raw.time_prefix.size());
  // Align the arrays to a page boundary of the final file (the record
  // starts at file offset 0, so the payload begins at kHeaderSize). Readers
  // do not rely on it; the padding is part of format version 1's bytes.
  w.pad_to(kPageAlign, kHeaderSize);
  for (double v : raw.time_prefix) w.f64(v);
  for (double v : raw.energy_prefix) w.f64(v);
  return frame_record(RecordType::kCostTable, w.take());
}

hw::CostTable decode_cost_table(std::span<const std::byte> record) {
  const RecordView view = parse_record(record, RecordType::kCostTable);
  expect_single_record(view, record);
  Cursor c(view.payload);
  const auto num_layers = static_cast<std::size_t>(c.u64());
  const auto gpu_levels = static_cast<std::size_t>(c.u64());
  const std::uint64_t ladder = c.count(8);
  std::vector<std::size_t> cpu_slot;
  cpu_slot.reserve(ladder);
  for (std::uint64_t i = 0; i < ladder; ++i) {
    cpu_slot.push_back(static_cast<std::size_t>(c.u64()));
  }
  const auto cpu_slots = static_cast<std::size_t>(c.u64());
  const auto array_len = static_cast<std::size_t>(c.u64());
  c.skip_to(kPageAlign, kHeaderSize);
  // Bound the promised arrays by the bytes actually present before
  // allocating; from_parts then checks them against the dimensions.
  if (array_len > c.remaining() / 16) {
    throw TruncatedError("cost table arrays extend past the payload");
  }
  std::vector<double> time(array_len);
  std::vector<double> energy(array_len);
  for (double& v : time) v = c.f64();
  for (double& v : energy) v = c.f64();
  c.expect_done("cost table payload");
  return as_malformed("cost table", [&] {
    return hw::CostTable::from_parts(num_layers, gpu_levels,
                                     std::move(cpu_slot), cpu_slots,
                                     std::move(time), std::move(energy));
  });
}

void save_cost_table(const std::string& path, const hw::CostTable& table) {
  write_file(path, encode_cost_table(table));
}

hw::CostTable load_cost_table(const std::string& path) {
  return decode_cost_table(read_file(path));
}

// --- Inspection + fuzzing ---

RecordInfo inspect_record(std::span<const std::byte> bytes) {
  const RecordView view = parse_record(bytes);
  RecordInfo info;
  info.type = view.type;
  info.payload_bytes = view.payload.size();
  info.total_bytes = view.total_size;
  return info;
}

int fuzz_try_decode(std::span<const std::byte> bytes) {
  int accepted = 0;
  try {
    (void)decode_graph(bytes);
    ++accepted;
  } catch (const Error&) {
  }
  try {
    (void)decode_plan(bytes);
    ++accepted;
  } catch (const Error&) {
  }
  try {
    (void)decode_cost_table(bytes);
    ++accepted;
  } catch (const Error&) {
  }
  try {
    (void)core::decode_model_bundle(bytes);
    ++accepted;
  } catch (const Error&) {
  }
  return accepted;
}

}  // namespace powerlens::io
