// The TSPU's connection-tracking and blocking-state timeouts, as measured by
// the paper (Table 2, Table 8). These constants are the canonical values the
// Device enforces; measure::TimeoutEstimator re-derives them black-box.
#pragma once

#include "util/time.h"

namespace tspu::core {

using util::Duration;

/// Conntrack states the device distinguishes (§5.3.2/§5.3.3). The paper
/// found four unique prefix-state timeouts plus the Table-2 TCP states; this
/// model unifies them as follows (documented in EXPERIMENTS.md):
struct ConntrackTimeouts {
  /// Local host sent the first packet and it was a SYN (Table 2 SYN-SENT).
  Duration local_syn_sent = Duration::seconds(60);
  /// Local-initiated flow that saw SYNs from both sides but no SYN/ACK yet
  /// (Table 2 SYN-RECEIVED, from Local.SYN; Remote.SYN; Local.ACK).
  Duration syn_received = Duration::seconds(105);
  /// Handshake completed (Table 2 ESTABLISHED).
  Duration established = Duration::seconds(480);
  /// Local-initiated flow whose first packet was NOT a bare SYN (e.g. a bare
  /// SYN/ACK — a valid blocking prefix per §7.1.1 / Table 8 "Lsa" = 420).
  Duration local_other = Duration::seconds(420);
  /// Remote-initiated flow opened by a remote SYN (Table 8 "Rs" rows = 30).
  Duration remote_syn_sent = Duration::seconds(30);
  /// Remote-initiated flow opened by any other remote packet (Table 8
  /// "Ra"/"Rsa" rows = 480).
  Duration remote_other = Duration::seconds(480);
  /// Roles reversed by a local SYN/ACK answering a remote SYN (split
  /// handshake, §8; Table 8 rows with "...;Lsa" after a SYN = 180).
  Duration role_reversed = Duration::seconds(180);
};

/// Residual-censorship durations once a blocking state is entered (Table 2).
struct BlockingTimeouts {
  Duration sni_i = Duration::seconds(75);
  Duration sni_ii = Duration::seconds(420);
  Duration sni_iv = Duration::seconds(40);
  Duration quic = Duration::seconds(420);
};

}  // namespace tspu::core
