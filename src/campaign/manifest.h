// Campaign manifest: the on-disk identity of a campaign directory.
//
// The manifest pins everything that determines sample content — profile,
// campaign seed, sample count, and the scenario parameters — so a resumed
// invocation either matches it byte-for-byte or is rejected before it can
// mix artifacts from two different campaigns.  Worker count and artifact
// sinks are deliberately NOT identity: they change how fast samples are
// produced, never what is produced.
#pragma once

#include <string>

#include "src/campaign/campaign.h"

namespace dgs::campaign {

/// The identity members shared by the manifest and the aggregate (the
/// rows of core::campaign_identity_specs, in order), rendered as JSON
/// lines with no trailing comma.
std::string render_campaign_identity(const CampaignOptions& opts);

/// The complete manifest document for these options.
std::string render_manifest(const CampaignOptions& opts);

/// Creates <out_dir>/manifest.json when absent; otherwise requires the
/// existing file to match render_manifest(opts) byte-for-byte.  Throws
/// std::runtime_error when the directory belongs to a different campaign.
void write_or_check_manifest(const CampaignOptions& opts);

}  // namespace dgs::campaign
