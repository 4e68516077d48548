package uarch

import "fmt"

// The backend is event-driven: what issue and writeback cost in a cycle
// follows the instructions that move in it, not ROB occupancy.
//
//   - Wakeup.  dispatch counts the source operands whose producer has not
//     completed (robE.waitOps) and threads one link per such operand onto
//     the producer's consumer list.  When the producer completes, writeback
//     walks that list once; a consumer whose count reaches zero is ready.
//   - Issue.  Out-of-order issue keeps, per issue queue, the ready waiting
//     instructions in age order (readyQ) and takes each queue's oldest up to
//     its width.  In-order issue needs no queue: its waiting instructions are
//     always the youngest ROB entries, so it walks that suffix and stops at
//     the first one that cannot issue.
//   - Writeback.  An issued instruction is filed in the completion wheel's
//     bucket for its doneAt, in age order, so draining the current bucket
//     resolves branches in the order an oldest-first ROB scan would.
//   - Flush.  flushAfter takes every squashed instruction out of all three.
//
// Everything is sized in NewCore from the ROB, the issue queues and the
// execution latencies; a steady-state cycle allocates nothing.  Paranoid mode
// checks the structures against the ROB scan they replace on every cycle.

// qEnt is one ready-queue element: a ROB slot and its instruction's seq.
type qEnt struct {
	seq uint64
	idx int32
}

// ageQueue holds ROB slots in ascending seq order in a ring sized to its
// issue queue.  A ready instruction is also a waiting one, so the ring can
// never hold more than the issue queue does.
type ageQueue struct {
	buf     []qEnt
	head, n int
}

func newAgeQueue(capacity int) ageQueue {
	return ageQueue{buf: make([]qEnt, max(capacity, 1))}
}

func (q *ageQueue) at(i int) *qEnt {
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return &q.buf[j]
}

// insert files e at its age position, moving younger elements back one.
// Newly dispatched instructions are the youngest, so most inserts append.
func (q *ageQueue) insert(e qEnt) {
	if q.n == len(q.buf) {
		panic("uarch: ready queue overflow")
	}
	i := q.n
	for ; i > 0; i-- {
		prev := q.at(i - 1)
		if prev.seq < e.seq {
			break
		}
		*q.at(i) = *prev
	}
	*q.at(i) = e
	q.n++
}

// popFront removes and returns the oldest slot.
func (q *ageQueue) popFront() int32 {
	idx := q.buf[q.head].idx
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return idx
}

// truncate drops every element younger than seq; they sit at the back.
func (q *ageQueue) truncate(seq uint64) {
	for q.n > 0 && q.at(q.n-1).seq > seq {
		q.n--
	}
}

// initEvents sizes the event structures: ready queues per issue queue, two
// consumer links per ROB slot, and a completion wheel longer than the
// longest execution latency, so an issued instruction never laps it.
func (c *Core) initEvents() {
	for iq := range c.readyQ {
		c.readyQ[iq] = newAgeQueue(c.cfg.IQEntries)
	}
	c.consHead = make([]int32, len(c.rob))
	c.consNext = make([]int32, 2*len(c.rob))
	for i := range c.consHead {
		c.consHead[i] = -1
	}
	cfg := c.cfg
	lat := max(cfg.ALULat, cfg.MulLat, cfg.FPLat, cfg.L1Lat, cfg.L2Lat, cfg.MemLat, 1)
	n := 2
	for n < lat+2 {
		n <<= 1
	}
	c.wheel = make([]int32, n)
	for i := range c.wheel {
		c.wheel[i] = -1
	}
	c.wheelMask = uint64(n - 1)
}

// linkOperands counts r's operands whose producer is still in flight and not
// complete — what ready would find at this moment — and puts r on each such
// producer's consumer list.  From here on only the producer's completion
// can change the answer: it commits or is squashed only after completing or
// after r itself is squashed.
func (c *Core) linkOperands(idx int, r *robE) {
	for k, s := range r.src {
		if s.idx < 0 {
			continue
		}
		p := &c.rob[s.idx]
		if !p.valid || p.fb.seq != s.seq || p.state == 2 {
			continue
		}
		l := int32(2*idx + k)
		c.consNext[l] = c.consHead[s.idx]
		c.consHead[s.idx] = l
		r.linked |= 1 << k
		r.waitOps++
	}
}

// wake delivers a completed producer's result to its consumers.
func (c *Core) wake(p int32) {
	for l := c.consHead[p]; l >= 0; l = c.consNext[l] {
		r := &c.rob[l>>1]
		r.linked &^= 1 << (l & 1)
		r.waitOps--
		if r.waitOps == 0 && !c.cfg.InOrderIssue {
			c.readyQ[r.iq].insert(qEnt{seq: r.fb.seq, idx: l >> 1})
		}
	}
	c.consHead[p] = -1
}

// unlinkOperands takes a squashed waiting instruction off its producers'
// consumer lists.  Squashing runs youngest first, so its links are the most
// recent ones and the walk normally stops at the list head.
func (c *Core) unlinkOperands(idx int32, r *robE) {
	for k := 1; k >= 0; k-- {
		if r.linked&(1<<k) == 0 {
			continue
		}
		l := 2*idx + int32(k)
		link := &c.consHead[r.src[k].idx]
		for *link != l {
			link = &c.consNext[*link]
		}
		*link = c.consNext[l]
	}
	r.linked = 0
}

// wheelInsert files an issued slot in the bucket of cycle at, keeping the
// bucket in age order.
func (c *Core) wheelInsert(idx int32, at uint64) {
	r := &c.rob[idx]
	r.bucket = int32(at & c.wheelMask)
	link := &c.wheel[r.bucket]
	for *link >= 0 && c.rob[*link].fb.seq < r.fb.seq {
		link = &c.rob[*link].next
	}
	r.next = *link
	*link = idx
}

// wheelRemove takes a squashed issued slot out of its bucket.
func (c *Core) wheelRemove(idx int32) {
	r := &c.rob[idx]
	link := &c.wheel[r.bucket]
	for *link != idx {
		link = &c.rob[*link].next
	}
	*link = r.next
}

// violation records a backend cross-check failure on the pipeline's
// invariant list, where spec.Exec and the paranoid tests look.
func (c *Core) violation(op string, r *robE, format string, args ...any) {
	var seq uint64
	if r != nil {
		seq = r.fb.entrySeq
	}
	c.bp.ReportViolation(op, c.cycle, seq, fmt.Sprintf(format, args...))
}

// checkReady compares the wakeup state with the ready scan, in age order:
// every waiting instruction's count must be zero exactly when its producers
// are done, out-of-order issue's queues must hold exactly the ready ones,
// and in-order issue's waiting instructions must be the ROB's youngest.
// It reports the first mismatch of the cycle.
func (c *Core) checkReady() {
	var pos [numIQ]int
	waiting := 0
	for i := 0; i < c.robCount; i++ {
		idx := c.robIdx(i)
		r := &c.rob[idx]
		if r.state != 0 {
			if c.cfg.InOrderIssue && waiting > 0 {
				c.violation("uarch.issue", r, "in-order: seq %d issued behind a waiting instruction", r.fb.seq)
				return
			}
			continue
		}
		waiting++
		rdy := c.ready(r)
		if rdy != (r.waitOps == 0) {
			c.violation("uarch.issue", r, "seq %d: scan says ready=%v, wakeup count is %d", r.fb.seq, rdy, r.waitOps)
			return
		}
		if c.cfg.InOrderIssue || !rdy {
			continue
		}
		q := &c.readyQ[r.iq]
		if pos[r.iq] >= q.n || q.at(pos[r.iq]).idx != int32(idx) {
			c.violation("uarch.issue", r, "seq %d is ready but not next in issue queue %d", r.fb.seq, r.iq)
			return
		}
		pos[r.iq]++
	}
	for iq := range c.readyQ {
		if q := &c.readyQ[iq]; pos[iq] != q.n {
			c.violation("uarch.issue", nil, "issue queue %d holds %d ready instructions, the scan finds %d", iq, q.n, pos[iq])
			return
		}
	}
}

// checkCompleting compares this cycle's wheel bucket with the instructions
// a writeback scan would complete (issued, doneAt reached), in age order.
func (c *Core) checkCompleting() {
	l := c.wheel[c.cycle&c.wheelMask]
	for i := 0; i < c.robCount; i++ {
		idx := c.robIdx(i)
		r := &c.rob[idx]
		if r.state != 1 || r.doneAt > c.cycle {
			continue
		}
		if l != int32(idx) {
			c.violation("uarch.writeback", r, "seq %d completes this cycle but is not next in the wheel bucket", r.fb.seq)
			return
		}
		l = r.next
	}
	if l >= 0 {
		r := &c.rob[l]
		c.violation("uarch.writeback", r, "wheel completes seq %d, which the scan does not", r.fb.seq)
	}
}
