package multishot

import "tetrabft/internal/types"

// recordEnv is the Env of the package's unit tests. It records every
// broadcast and send in call order, and its clock stands where the test puts
// it. With loopback set it also hands each broadcast straight back to that
// machine inside the call, as the replay harnesses do (the simulator and the
// TCP runtime queue a node's own messages).
type recordEnv struct {
	now      types.Time
	loopback types.Machine
	out      []outMsg // in call order, as a turn buffers them
}

func (e *recordEnv) Now() types.Time { return e.now }
func (e *recordEnv) Send(to types.NodeID, m types.Message) {
	e.out = append(e.out, outMsg{to: to, msg: m})
}
func (e *recordEnv) Broadcast(m types.Message) {
	e.out = append(e.out, outMsg{bcast: true, msg: m})
	if e.loopback != nil {
		e.loopback.Deliver(e, e.loopback.ID(), m)
	}
}
func (e *recordEnv) SetTimer(types.TimerID, types.Duration) {}
func (e *recordEnv) Decide(types.Slot, types.Value)         {}

// broadcasts returns the broadcast messages, in order.
func (e *recordEnv) broadcasts() []types.Message {
	var out []types.Message
	for _, o := range e.out {
		if o.bcast {
			out = append(out, o.msg)
		}
	}
	return out
}

// sends counts the messages sent to a single peer.
func (e *recordEnv) sends() int { return len(e.out) - len(e.broadcasts()) }

// broadcastsOf returns the broadcast messages of kind M, in order.
func broadcastsOf[M types.Message](e *recordEnv) []M {
	var out []M
	for _, m := range e.broadcasts() {
		if v, ok := m.(M); ok {
			out = append(out, v)
		}
	}
	return out
}

// countVotes counts the MSVote broadcasts e recorded.
func countVotes(e *recordEnv) int { return len(broadcastsOf[types.MSVote](e)) }

// countViewChanges counts the MSViewChange broadcasts e recorded.
func countViewChanges(e *recordEnv) int { return len(broadcastsOf[types.MSViewChange](e)) }
