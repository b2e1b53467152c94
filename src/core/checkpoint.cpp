#include "src/core/checkpoint.h"

#include <sstream>

#include "src/util/crc32.h"

namespace dgs::core {
namespace {

std::optional<ArtifactError> err(std::string where, std::string message) {
  return ArtifactError{std::move(where), std::move(message)};
}

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

std::string render_checkpoint_header(const CheckpointHeader& h) {
  std::ostringstream out;
  out << '{';
  write_artifact_header(out, "checkpoint", ", ");
  out << ", ";
  write_fields(out, checkpoint_header_specs(), h, ", ");
  out << '}';
  return out.str();
}

void write_checkpoint(
    std::ostream& out, CheckpointHeader header,
    std::span<const std::pair<std::string, std::string>> sections) {
  const auto names = checkpoint_section_names();
  DGS_ENSURE_EQ(sections.size(), names.size());
  // The header states the payload's size and CRC, so both are summed over
  // the frames and bodies first; the payload is then streamed in place
  // rather than assembled into one more copy.
  std::vector<std::string> frames;
  std::uint32_t crc = util::crc32_init();
  header.payload_bytes = 0;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    DGS_ENSURE(sections[i].first == names[i],
               "checkpoint section " << i << " must be '" << names[i]
                                     << "', got '" << sections[i].first
                                     << "'");
    BinaryWriter frame;
    frame.str(sections[i].first);
    frame.u64(sections[i].second.size());
    crc = util::crc32_update(crc, as_bytes(frame.data()));
    crc = util::crc32_update(crc, as_bytes(sections[i].second));
    header.payload_bytes += frame.size() + sections[i].second.size();
    frames.push_back(frame.take());
  }
  header.payload_crc32 = util::crc32_final(crc);
  const std::string header_json = render_checkpoint_header(header);
  // Emitting through our own validator guarantees the writer can never
  // produce a header the reader rejects.
  if (auto e = validate_checkpoint_header_json(header_json)) {
    DGS_CHECK(false, "checkpoint writer produced an invalid header: " +
                         e->where + ": " + e->message);
  }
  out << kCheckpointMagic;
  BinaryWriter len;
  len.u64(header_json.size());
  out << len.data() << header_json;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    out << frames[i] << sections[i].second;
  }
}

std::string_view CheckpointView::section(std::string_view name) const {
  for (const auto& [n, body] : sections) {
    if (n == name) return body;
  }
  DGS_CHECK(false, "unknown checkpoint section requested");
  return {};
}

std::optional<ArtifactError> read_checkpoint(std::string_view data,
                                             CheckpointView* out) {
  if (!data.starts_with(kCheckpointMagic)) {
    const std::string_view want =
        kCheckpointMagic.substr(0, kCheckpointMagic.size() - 1);
    const std::string_view got = data.substr(0, data.find('\n'));
    return err("checkpoint", "expected " + std::string(want) + ", found '" +
                                 std::string(got.substr(0, 32)) + "'");
  }
  std::size_t at = kCheckpointMagic.size();
  if (data.size() - at < 8) {
    return err("checkpoint", "truncated before the header length");
  }
  std::uint64_t header_len = 0;
  for (int i = 0; i < 8; ++i) {
    header_len |= static_cast<std::uint64_t>(
                      static_cast<std::uint8_t>(data[at + i]))
                  << (8 * i);
  }
  at += 8;
  if (header_len > data.size() - at) {
    return err("checkpoint", "header length exceeds the file");
  }
  const std::string_view header_json = data.substr(at, header_len);
  at += header_len;
  CheckpointHeader h;
  if (auto e = validate_checkpoint_header_json(header_json, &h)) return e;

  const std::string_view payload = data.substr(at);
  if (payload.size() != h.payload_bytes) {
    return err("checkpoint.payload_bytes",
               "header says " + std::to_string(h.payload_bytes) +
                   " payload bytes, file has " +
                   std::to_string(payload.size()));
  }
  if (util::crc32(as_bytes(payload)) != h.payload_crc32) {
    return err("checkpoint.payload_crc32", "payload CRC mismatch");
  }

  const auto names = checkpoint_section_names();
  std::vector<std::pair<std::string, std::string_view>> sections;
  std::size_t p = 0;
  for (const char* expected : names) {
    const std::string where = std::string("checkpoint.") + expected;
    if (payload.size() - p < 4) return err(where, "truncated section name");
    std::uint32_t name_len = 0;
    for (int i = 0; i < 4; ++i) {
      name_len |= static_cast<std::uint32_t>(
                      static_cast<std::uint8_t>(payload[p + i]))
                  << (8 * i);
    }
    p += 4;
    if (payload.size() - p < name_len) {
      return err(where, "truncated section name");
    }
    const std::string_view name = payload.substr(p, name_len);
    p += name_len;
    if (name != expected) {
      return err(where, "expected section '" + std::string(expected) +
                            "', got '" + std::string(name) + "'");
    }
    if (payload.size() - p < 8) return err(where, "truncated section size");
    std::uint64_t body_len = 0;
    for (int i = 0; i < 8; ++i) {
      body_len |= static_cast<std::uint64_t>(
                      static_cast<std::uint8_t>(payload[p + i]))
                  << (8 * i);
    }
    p += 8;
    if (payload.size() - p < body_len) {
      return err(where, "section body exceeds the payload");
    }
    sections.emplace_back(std::string(name), payload.substr(p, body_len));
    p += body_len;
  }
  if (p != payload.size()) {
    return err("checkpoint", "trailing bytes after the final section");
  }
  if (out != nullptr) {
    out->header = h;
    out->sections = std::move(sections);
  }
  return std::nullopt;
}

std::optional<ArtifactError> validate_checkpoint(std::string_view data) {
  return read_checkpoint(data, nullptr);
}

}  // namespace dgs::core
