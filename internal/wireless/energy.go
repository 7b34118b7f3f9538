// Transceiver energy accounting.
//
// Every cycle a transceiver drives the medium costs energy, priced from
// the rfmodel scaling argument through package channel (mW over Gb/s is
// pJ/bit): ordinary and Bulk frames at the Data transceiver's ~1 pJ/bit,
// tone-init frames at the Tone transceiver's 2 pJ/bit. The Network charges
// the ledger at the three points a transceiver actually transmits — a
// first-attempt grant, a retransmission grant, and the partial frame
// burned before a collision is detected — and mirrors every charge into a
// per-node ledger, so the total is exactly the sum of the per-node
// transceiver budgets (pinned by TestEnergyLedgerConservation).
//
// The ledger is live on every configuration, ideal channel included:
// transmissions cost energy whether or not they can corrupt. It is kept
// outside Stats so the golden-conformance rendering of wireless.Stats is
// byte-identical to the pre-energy simulator.
package wireless

import (
	"fmt"

	"wisync/internal/channel"
)

// Frame sizes (Section 4.1): an ordinary message carries a 64-bit datum,
// an 11-bit BM address, a Bulk bit and a Tone bit; a Bulk frame appends
// three more data words.
const (
	MsgBits  = 77
	BulkBits = MsgBits + 3*64
)

// EnergyStats is the Data-channel transceiver energy ledger, in picojoules,
// plus the delivery-reliability counters of the channel-error model. It is
// reported alongside Stats (kernels.Result.Energy, apps.Result.Energy) and
// stays zero-valued on wired configurations.
type EnergyStats struct {
	// TxPJ is the energy of first-attempt transmissions that occupied the
	// channel (committed or corrupted; a frame burns the same energy
	// either way).
	TxPJ float64
	// RetxPJ is the energy of retransmission attempts after corrupted
	// deliveries.
	RetxPJ float64
	// CollisionPJ is the energy of the partial frames transmitted during
	// the collision-detection cycles, summed over all colliding senders.
	CollisionPJ float64
	// Retransmissions counts corrupted deliveries that were resubmitted
	// through the MAC.
	Retransmissions uint64
	// DeliveryFailures counts transmissions that exhausted the
	// retransmission budget; their senders observe committed == false.
	DeliveryFailures uint64
	// FaultedSends counts sends completed as failures by the fault
	// injector — the sender's transceiver was inside an outage window at
	// submit or grant time, or fail-stopped with the message still
	// queued. Their senders observe committed == false. Always zero
	// without a fault plan.
	FaultedSends uint64
}

// TotalPJ is the full transceiver energy spent on the Data channel.
func (e EnergyStats) TotalPJ() float64 { return e.TxPJ + e.RetxPJ + e.CollisionPJ }

func (e EnergyStats) String() string {
	s := fmt.Sprintf("total=%.1fpJ tx=%.1fpJ retx=%.1fpJ collision=%.1fpJ retransmissions=%d failures=%d",
		e.TotalPJ(), e.TxPJ, e.RetxPJ, e.CollisionPJ, e.Retransmissions, e.DeliveryFailures)
	// Only faulty runs mention the injector, so every no-fault rendering is
	// byte-identical to the pre-fault simulator.
	if e.FaultedSends > 0 {
		s += fmt.Sprintf(" faulted=%d", e.FaultedSends)
	}
	return s
}

// Add accumulates o into e (sweep-level aggregation).
func (e *EnergyStats) Add(o EnergyStats) {
	e.TxPJ += o.TxPJ
	e.RetxPJ += o.RetxPJ
	e.CollisionPJ += o.CollisionPJ
	e.Retransmissions += o.Retransmissions
	e.DeliveryFailures += o.DeliveryFailures
	e.FaultedSends += o.FaultedSends
}

// frameBits returns the frame size of msg on the medium.
func frameBits(msg Msg) float64 {
	if msg.Kind == KindBulk {
		return BulkBits
	}
	return MsgBits
}

// frameEnergyPJ prices one full frame of msg: tone-init frames are driven
// by the Tone transceiver circuitry, everything else by the Data
// transceiver.
func frameEnergyPJ(msg Msg) float64 {
	if msg.Kind == KindToneInit {
		return frameBits(msg) * channel.TonePJPerBit
	}
	return frameBits(msg) * channel.DataPJPerBit
}

// chargeTx charges a granted transmission's full frame to its sender: a
// first attempt lands in TxPJ, a retransmission in RetxPJ.
func (n *Network) chargeTx(req *request) {
	pj := frameEnergyPJ(req.msg)
	n.energyPerNode[req.msg.Src] += pj
	if req.retx > 0 {
		n.Energy.RetxPJ += pj
	} else {
		n.Energy.TxPJ += pj
	}
}

// chargeCollision charges one colliding sender for the partial frame it
// drove before detection: CollisionCycles of the frame's full duration
// (MsgCycles, or BulkCycles for a Bulk frame).
func (n *Network) chargeCollision(req *request) {
	dur := n.p.MsgCycles
	if req.msg.Kind == KindBulk {
		dur = n.p.BulkCycles
	}
	pj := frameEnergyPJ(req.msg) * float64(n.p.CollisionCycles) / float64(dur)
	n.energyPerNode[req.msg.Src] += pj
	n.Energy.CollisionPJ += pj
}

// EnergyPerNode returns a copy of the per-node transceiver ledger in
// picojoules. Its sum equals Energy.TotalPJ up to float association.
func (n *Network) EnergyPerNode() []float64 {
	out := make([]float64, len(n.energyPerNode))
	copy(out, n.energyPerNode)
	return out
}
