#include "src/campaign/manifest.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dgs::campaign {

std::string render_campaign_identity(const CampaignOptions& opts) {
  std::ostringstream out;
  out << "  ";
  core::write_fields(out, core::campaign_identity_specs(), opts, ",\n  ");
  return out.str();
}

std::string render_manifest(const CampaignOptions& opts) {
  std::ostringstream out;
  out << "{\n  ";
  core::write_artifact_header(out, "campaign_manifest", ",\n  ");
  out << ",\n" << render_campaign_identity(opts) << "\n}\n";
  return out.str();
}

void write_or_check_manifest(const CampaignOptions& opts) {
  const std::string path = manifest_path(opts);
  const std::string want = render_manifest(opts);
  std::ifstream in(path);
  if (in) {
    std::ostringstream have;
    have << in.rdbuf();
    if (have.str() != want) {
      // dgslint: allow(R4) -- manifest mismatch is a user-facing error
      throw std::runtime_error(
          "campaign manifest mismatch: " + path +
          " was written by a different campaign (profile/seed/samples/"
          "scenario changed); use a fresh --out directory");
    }
    return;
  }
  std::ofstream out(path);
  // dgslint: allow(R4) -- manifest I/O errors are runtime_error by contract
  if (!out) throw std::runtime_error("cannot write " + path);
  out << want;
}

}  // namespace dgs::campaign
