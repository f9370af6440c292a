#include "splicer/workflow.h"

#include <stdexcept>

namespace splicer::core {

PaymentWorkflow::PaymentWorkflow(crypto::KeyManagementGroup& kmg, common::Rng& rng,
                                 WorkflowConfig config)
    : kmg_(kmg), rng_(rng), config_(config) {
  if (config_.min_tu <= 0 || config_.max_tu < config_.min_tu) {
    throw std::invalid_argument("PaymentWorkflow: bad TU bounds");
  }
}

std::vector<pcn::Amount> PaymentWorkflow::split_into_tus(pcn::Amount value) const {
  std::vector<pcn::Amount> tus;
  pcn::Amount remaining = value;
  while (remaining > 0) {
    pcn::Amount tu;
    if (remaining <= config_.max_tu) {
      tu = remaining;
    } else if (remaining - config_.max_tu < config_.min_tu) {
      tu = remaining - config_.min_tu;  // avoid a sub-Min-TU crumb
    } else {
      tu = config_.max_tu;
    }
    tus.push_back(tu);
    remaining -= tu;
  }
  return tus;
}

WorkflowResult PaymentWorkflow::execute(const PaymentDemand& demand) {
  if (demand.value <= 0) {
    throw std::invalid_argument("PaymentWorkflow: demand value must be > 0");
  }
  WorkflowResult result;
  result.tid = next_tid_++;
  auto step = [&result](std::string line) {
    result.trace.push_back(std::move(line));
    ++result.messages;
  };

  // --- Payment preparation -------------------------------------------
  crypto::SecureChannel sender_channel = crypto::SecureChannel::establish(rng_);
  step("TLS: P_s <-> S_i secure channel established");
  const auto payreq = sender_channel.seal(encode_demand(demand));
  step("payreq: P_s -> S_i (sealed)");
  if (!sender_channel.open(payreq)) return result;  // tampered payreq

  const std::uint64_t pk_tid = kmg_.issue_key(result.tid);
  step("KMG: issued (pk_tid, sk_tid) for tid=" + std::to_string(result.tid));

  // --- Execution step (1): P_s -> S_i (tid, Enc(pk_tid, D_tid)) -------
  const auto inp = crypto::encrypt(pk_tid, encode_demand(demand), rng_);
  step("P_s -> S_i: (tid, inp = Enc(pk_tid, D_tid)) + funds");

  // --- (2): S_i decrypts and splits ------------------------------------
  const auto decrypted = kmg_.decrypt(result.tid, inp);
  if (!decrypted) return result;
  const auto recovered = decode_demand(*decrypted);
  if (!recovered || !(*recovered == demand)) return result;
  step("S_i: D_tid = Dec(sk_tid, inp) recovered");

  result.tu_values = split_into_tus(demand.value);
  result.tu_count = result.tu_values.size();
  step("S_i: split into K=" + std::to_string(result.tu_count) + " TUs");

  // --- (3): per-TU keys, S_i -> S_j, ACK_tuid --------------------------
  std::size_t acked = 0;
  for (std::size_t i = 0; i < result.tu_values.size(); ++i) {
    const crypto::TransactionId tuid =
        (result.tid << 20) | static_cast<crypto::TransactionId>(i + 1);
    const std::uint64_t pk_tuid = kmg_.issue_key(tuid);
    PaymentDemand tu_demand{demand.sender, demand.receiver, result.tu_values[i]};
    const auto tu_ct = crypto::encrypt(pk_tuid, encode_demand(tu_demand), rng_);
    ++result.messages;  // S_i -> S_j: Enc(pk_tuid, D_tuid)
    const auto tu_plain = kmg_.decrypt(tuid, tu_ct);
    if (!tu_plain) return result;
    const auto tu_rec = decode_demand(*tu_plain);
    if (!tu_rec || !(*tu_rec == tu_demand)) return result;
    ++result.messages;  // ACK_tuid: S_j -> S_i
    ++acked;            // theta^i_tuid := true
  }
  if (acked != result.tu_count) return result;
  step("S_i: all ACK_tuid received, theta_tid := true");

  // --- (4): S_j pays P_r in full; ACK_tid returns to P_s ---------------
  step("S_j -> P_r: " + common::amount_to_string(demand.value) + " tokens");
  step("ACK_tid: P_r -> ... -> P_s");
  result.success = true;
  return result;
}

}  // namespace splicer::core
