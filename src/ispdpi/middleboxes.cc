#include "ispdpi/middleboxes.h"

#include "netsim/network.h"

namespace tspu::ispdpi {

void FragmentInspectingBox::process(wire::Packet pkt, netsim::Direction dir) {
  if (!pkt.ip.is_fragment()) {
    forward_on(std::move(pkt), dir);
    return;
  }
  wire::FragmentTable& table =
      dir == netsim::Direction::kLeftToRight ? up_ : down_;
  wire::FragmentPush pushed = table.push(std::move(pkt), net().now());
  if (!pushed.complete()) return;
  if (forward_reassembled_) {
    forward_on(wire::reassemble(pushed.fragments), dir);
    return;
  }
  for (wire::Packet& f : pushed.fragments) forward_on(std::move(f), dir);
}

}  // namespace tspu::ispdpi
