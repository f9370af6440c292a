#pragma once

// The paper's payment preparation & execution workflow (SS III-A, Fig. 3)
// at message-level fidelity for one transaction:
//
//  prep:  P_s <-TLS-> S_i handshake; payreq; S_i fetches fresh
//         (pk_tid, sk_tid) from the KMG; state_tid = (tid, theta_tid)
//  (1)    P_s sends (tid, Enc(pk_tid, D_tid))
//  (2-3)  S_i decrypts, splits D_tid into K TUs bounded by Min/Max-TU,
//         each TU re-encrypted to a fresh pk_tuid for the destination hub
//         S_j, which decrypts and ACKs; theta updates per-TU
//  (4)    S_j pays P_r once every TU arrived; ACK_tid returns to P_s
//
// This class executes the real (simulation-grade) cryptography for every
// step and records a human-readable trace; the routing engine reuses the
// same split bounds but elides the byte-level crypto for throughput (see
// DESIGN.md).

#include <string>
#include <vector>

#include "crypto/kmg.h"
#include "crypto/secure_channel.h"
#include "splicer/demand_codec.h"

namespace splicer::core {

struct WorkflowConfig {
  pcn::Amount min_tu = common::whole_tokens(1);
  pcn::Amount max_tu = common::whole_tokens(4);
  std::size_t kmg_members = 5;  // iota
};

struct WorkflowResult {
  bool success = false;
  crypto::TransactionId tid = 0;
  std::size_t tu_count = 0;           // K
  std::vector<pcn::Amount> tu_values; // |d_i| for each TU
  std::size_t messages = 0;           // end-to-end message count
  std::vector<std::string> trace;     // step-by-step narration
};

/// Executes one payment workflow. `kmg` persists across payments (fresh
/// keys per tid/tuid are issued from it); `rng` drives the ephemeral keys.
class PaymentWorkflow {
 public:
  PaymentWorkflow(crypto::KeyManagementGroup& kmg, common::Rng& rng,
                  WorkflowConfig config = {});

  /// Runs preparation + execution for `demand`. The returned result's
  /// `success` is false if any decryption/authentication step failed
  /// (which indicates tampering; never happens in honest runs). Throws
  /// std::invalid_argument on a demand value <= 0: a transfer of nothing is
  /// never a success.
  [[nodiscard]] WorkflowResult execute(const PaymentDemand& demand);

  /// Splits a demand value into TU values within [min_tu, max_tu] (the
  /// same rule the router uses; exposed for property tests).
  [[nodiscard]] std::vector<pcn::Amount> split_into_tus(pcn::Amount value) const;

 private:
  crypto::KeyManagementGroup& kmg_;
  common::Rng& rng_;
  WorkflowConfig config_;
  crypto::TransactionId next_tid_ = 1;
};

}  // namespace splicer::core
