// DVB-S2 framing (ETSI EN 302 307 §5): BBFRAME -> FECFRAME -> PLFRAME.
//
// The MODCOD table in dvbs2.h quotes spectral efficiencies; this module
// derives them from the standard's actual frame structure —
//
//   BBFRAME:  80-bit BBHEADER + data field of DFL = k_bch - 80 bits
//   FECFRAME: BCH(k_bch -> n_bch) then LDPC(k_ldpc -> 64800) bits
//   PLFRAME:  90-symbol PL header + 64800/eta_mod data symbols, plus an
//             optional 36-symbol pilot block after every 16 slots
//
// so that efficiency == (k_bch - 80) / (90 + 64800/eta), which must equal
// the table values bit-for-bit (tests enforce this).  It also answers the
// practical question for DGS chunk transfer: how many frames and how much
// air time does a chunk of N bytes cost at a given MODCOD and symbol rate.
#pragma once

#include <cstdint>

#include "src/link/dvbs2.h"
#include "src/util/check.h"

namespace dgs::link {

/// Normal FECFRAME length [bits].
inline constexpr int kFecFrameBits = 64800;
/// BBHEADER length [bits].
inline constexpr int kBbHeaderBits = 80;
/// PLHEADER length [symbols].
inline constexpr int kPlHeaderSymbols = 90;
/// Slot size [symbols] and pilot block [symbols] per 16 slots.
inline constexpr int kSlotSymbols = 90;
inline constexpr int kPilotBlockSymbols = 36;

/// LDPC/BCH block sizes for a normal FECFRAME at the given code rate.
struct FecParams {
  int k_bch = 0;   ///< Uncoded BCH block = BBFRAME length [bits].
  int k_ldpc = 0;  ///< BCH codeword = LDPC information length [bits].
};

/// Parameters for the 11 normal-frame code rates.  Throws
/// std::invalid_argument for a rate not in the standard (matching is
/// exact on the rational value).
FecParams fec_params(double code_rate);

/// Bits per constellation symbol.
int bits_per_symbol(Modulation mod);

/// Payload (data-field) bits carried by one PLFRAME: k_bch - 80.
int plframe_payload_bits(const ModCod& mc);

/// Total symbols of one PLFRAME (header + data slots + pilots if enabled).
int plframe_symbols(const ModCod& mc, bool pilots = false);

/// Spectral efficiency derived from the frame structure
/// (payload bits / total symbols); equals ModCod::spectral_efficiency for
/// pilots == false.
double derived_efficiency(const ModCod& mc, bool pilots = false);

/// Air-time accounting for transferring `payload_bytes` at `mc`.
struct FrameAccounting {
  std::int64_t frames = 0;          ///< PLFRAMEs needed (last one padded).
  std::int64_t total_symbols = 0;
  double duration_s = 0.0;          ///< At the given symbol rate.
  double efficiency_achieved = 0.0; ///< Payload bits / total symbols,
                                    ///< including last-frame padding.
};
FrameAccounting frame_accounting(const ModCod& mc, double payload_bytes,
                                 double symbol_rate_hz, bool pilots = false);

/// Stable index of a MODCOD within dvbs2_modcods() — the byte used in the
/// uploaded plan's wire format.  Throws std::invalid_argument if `mc` is
/// not a table entry.
std::uint8_t modcod_index(const ModCod& mc);
const ModCod& modcod_by_index(std::uint8_t index);

/// Checkpoint serialization (core/checkpoint.h) of a scheduled MODCOD as
/// its i32 table index, -1 for none.  Scheduled MODCODs only ever point
/// into the static dvbs2_modcods() table, so the index round-trips the
/// pointer — including pointer *equality*, which the contact-lifecycle
/// modcod_selected comparison relies on.
template <class Ar>
void io_modcod(Ar& ar, const ModCod*& m) {
  std::int32_t index = m == nullptr ? -1 : modcod_index(*m);
  ar.i32(index);
  if constexpr (Ar::kReading) {
    DGS_ENSURE(index >= -1 && index <= 0xff, "modcod index " << index);
    m = index < 0 ? nullptr
                  : &modcod_by_index(static_cast<std::uint8_t>(index));
  }
}

}  // namespace dgs::link
