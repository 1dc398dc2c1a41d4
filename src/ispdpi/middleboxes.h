// Non-TSPU middleboxes used as NEGATIVE CONTROLS for the remote
// fingerprinting experiments (§7.2).
//
// The fragmentation fingerprint rests on the claim that "a fragment queue
// limit of 45 is not a common behavior": Linux defaults to 64 fragments,
// Cisco devices to 24, Juniper to 250, and RFC 5722 says duplicates should
// be ignored rather than poison the queue. These boxes let the test suite
// and the fig9 bench demonstrate that the prober does NOT label such paths
// as TSPU.
#pragma once

#include <string>
#include <utility>

#include "netsim/middlebox.h"
#include "wire/fragment.h"

namespace tspu::ispdpi {

/// A middlebox that performs virtual reassembly for inspection: fragments
/// are buffered per (src, dst, IPID) queue under one of the wire presets
/// (linux_like_reassembly and friends) and released when the datagram
/// completes — either as the original fragments (cut-through inspection,
/// `forward_reassembled=false`) or as one reassembled packet
/// (`forward_reassembled=true`, the "other middleboxes ... that reassemble
/// fragments before reaching the TSPU" confound from §7.3). Unlike the
/// TSPU, fragment TTLs are never rewritten.
class FragmentInspectingBox : public netsim::Middlebox {
 public:
  FragmentInspectingBox(std::string name, wire::FragmentPolicy policy,
                        bool forward_reassembled = false)
      : Middlebox(std::move(name)),
        forward_reassembled_(forward_reassembled),
        up_(policy),
        down_(policy) {}

  void process(wire::Packet pkt, netsim::Direction dir) override;

 private:
  bool forward_reassembled_;
  wire::FragmentTable up_;
  wire::FragmentTable down_;
};

/// A plain transparent forwarder (a "middlebox" that does nothing) — the
/// null control for every on-path experiment.
class TransparentBox : public netsim::Middlebox {
 public:
  explicit TransparentBox(std::string name) : Middlebox(std::move(name)) {}
  void process(wire::Packet pkt, netsim::Direction dir) override {
    forward_on(std::move(pkt), dir);
  }
};

}  // namespace tspu::ispdpi
