package shift

import (
	"fmt"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/policy"
	"shift/internal/taint"
	"shift/internal/trace"
)

// IOCosts models the cycle cost of moving bytes across the OS boundary.
// The evaluation's Apache result (Figure 6) depends on I/O dominating
// request service time, so the defaults are deliberately disk/NIC-like.
type IOCosts struct {
	PerByte uint64 // cycles per byte moved by read/write/recv/send
	PerOpen uint64 // extra cycles per open
}

// DefaultIOCosts returns the model used in the evaluation.
func DefaultIOCosts() IOCosts { return IOCosts{PerByte: 6, PerOpen: 2000} }

// file is one open descriptor.
type file struct {
	path string
	off  int
}

// HostEffects observes the OS model's direct mutations of guest state —
// the ones that happen outside the instrumented instruction stream and
// would otherwise be invisible to a lockstep checker. The oracle package
// implements it; a nil Effects field disables all notifications.
type HostEffects interface {
	// HostWrite reports n bytes of host data written at addr (read,
	// recv, getarg transfers).
	HostWrite(addr uint64, n int)
	// HostTaint reports that [addr, addr+n) was marked as a source.
	HostTaint(addr, n uint64)
	// HostUntaint reports that [addr, addr+n) was explicitly cleared.
	HostUntaint(addr, n uint64)
	// OnSpawn reports a new guest thread created by parentTID.
	OnSpawn(parentTID, childTID int)
}

// SinkSyncer is the optional extension a batching checker (the
// decoupled tag pipeline) implements: a policy sink is about to render a
// verdict, so any batched shadow propagation must be applied first and
// any divergence it exposed must preempt the verdict. The inline oracle
// doesn't need it — it is never behind.
type SinkSyncer interface {
	SyncSink(m *machine.Machine, sink string) error
}

// multiEffects fans host-effect notifications out to several observers
// (oracle and pipeline together, for differential runs). SyncSink
// delegates to every member that implements it.
type multiEffects []HostEffects

func (me multiEffects) HostWrite(addr uint64, n int) {
	for _, e := range me {
		e.HostWrite(addr, n)
	}
}

func (me multiEffects) HostTaint(addr, n uint64) {
	for _, e := range me {
		e.HostTaint(addr, n)
	}
}

func (me multiEffects) HostUntaint(addr, n uint64) {
	for _, e := range me {
		e.HostUntaint(addr, n)
	}
}

func (me multiEffects) OnSpawn(parentTID, childTID int) {
	for _, e := range me {
		e.OnSpawn(parentTID, childTID)
	}
}

func (me multiEffects) SyncSink(m *machine.Machine, sink string) error {
	for _, e := range me {
		if s, ok := e.(SinkSyncer); ok {
			if err := s.SyncSink(m, sink); err != nil {
				return err
			}
		}
	}
	return nil
}

// syncSink drains batching checkers before a sink verdict; a
// divergence surfaced by the drain preempts the verdict as a TrapOracle.
func (w *World) syncSink(m *machine.Machine, sink string) *machine.Trap {
	s, ok := w.Effects.(SinkSyncer)
	if !ok {
		return nil
	}
	if err := s.SyncSink(m, sink); err != nil {
		return &machine.Trap{Kind: machine.TrapOracle, PC: m.PC, Ins: "syscall", Err: err}
	}
	return nil
}

// World is the OS model: files, the network, program arguments, output
// channels, the heap break — and, when tracking is on, the taint sources
// (§3.3.1) and policy sinks (Table 1).
type World struct {
	// Inputs.
	Files map[string][]byte
	NetIn []byte
	Stdin []byte
	Args  []string

	// Outputs.
	Stdout  []byte
	NetOut  []byte
	HTMLOut []byte
	SQLLog  []string
	SysLog  []string
	Opened  []string

	// Tags is the taint bitmap; nil disables all taint marking (the
	// uninstrumented baseline).
	Tags *taint.Space
	// Engine checks policies at sinks; nil disables checking.
	Engine *policy.Engine
	// Effects, when non-nil, is notified of host-side guest-state
	// mutations (for the lockstep oracle).
	Effects HostEffects
	// Trace, when non-nil, records taint-lifecycle events the OS model
	// originates: taint birth at input syscalls, host writes, policy
	// checks and violations, spawns. Run wires it from Options.Trace.
	Trace *trace.Tracer

	IO IOCosts

	// HeapBase seeds the sbrk break; the loader supplies it.
	HeapBase uint64
	// Sched and StackTop wire up guest threading (spawn/join/yield);
	// Run establishes them.
	Sched    *machine.Scheduler
	StackTop uint64

	brk      uint64
	netOff   int
	stdinOff int
	fds      []*file
}

// NewWorld returns an empty world with default I/O costs.
func NewWorld() *World {
	return &World{Files: make(map[string][]byte), IO: DefaultIOCosts()}
}

// Clone returns a fresh world with the same inputs and configuration but
// reset consumption state and outputs — for running the same workload
// repeatedly.
func (w *World) Clone() *World {
	nw := NewWorld()
	for k, v := range w.Files {
		nw.Files[k] = v
	}
	nw.NetIn = w.NetIn
	nw.Stdin = w.Stdin
	nw.Args = w.Args
	nw.IO = w.IO
	nw.HeapBase = w.HeapBase
	return nw
}

func (w *World) source(name string) bool {
	return w.Engine != nil && w.Engine.Conf.Sources[name]
}

// emit records one trace event stamped with the calling machine's clock,
// thread and pc. A nil Trace makes it a no-op.
func (w *World) emit(m *machine.Machine, ev trace.Event) {
	if w.Trace == nil {
		return
	}
	ev.Cycle, ev.TID, ev.PC = m.Cycles, m.TID, m.PC
	w.Trace.Emit(ev)
}

// markTaint taints guest memory [addr, addr+n) when tracking is enabled
// and the channel is an untrusted source.
func (w *World) markTaint(m *machine.Machine, addr uint64, n int, channel string) error {
	if w.Tags == nil || n <= 0 || !w.source(channel) {
		return nil
	}
	if err := w.Tags.SetRangeFrom(addr, uint64(n), taint.ChannelForSource(channel)); err != nil {
		return err
	}
	if w.Effects != nil {
		w.Effects.HostTaint(addr, uint64(n))
	}
	// Taint birth: the event every later provenance question traces back
	// to, so it carries the source channel by name.
	w.emit(m, trace.Event{Kind: trace.KindTaint, Addr: addr, N: uint64(n), Name: channel})
	return nil
}

// notifyWrite reports a host data transfer into guest memory.
func (w *World) notifyWrite(m *machine.Machine, addr uint64, n int) {
	if n <= 0 {
		return
	}
	if w.Effects != nil {
		w.Effects.HostWrite(addr, n)
	}
	w.emit(m, trace.Event{Kind: trace.KindHostWrite, Addr: addr, N: uint64(n)})
}

// checkSink records the policy check (and, when v is non-nil, the
// violation) in the trace and converts the violation to a trap. Callers
// invoke it only when an Engine is installed — a recorded policy-check
// event means a check actually ran.
func (w *World) checkSink(m *machine.Machine, sink string, v *policy.Violation) *machine.Trap {
	// A sink verdict is a synchronization point for batched shadow
	// propagation: drain before rendering, and let a divergence the drain
	// exposes preempt the verdict.
	if t := w.syncSink(m, sink); t != nil {
		return t
	}
	w.emit(m, trace.Event{Kind: trace.KindPolicyCheck, Name: sink})
	if v == nil {
		return nil
	}
	w.emit(m, trace.Event{Kind: trace.KindViolation, Name: v.Policy})
	return violationTrap(m, v)
}

// hostTrap wraps an internal error.
func hostTrap(m *machine.Machine, err error) *machine.Trap {
	return &machine.Trap{Kind: machine.TrapHostError, PC: m.PC, Ins: "syscall", Err: err}
}

// violationTrap surfaces a policy violation as a trap that Run converts
// into an Alert.
func violationTrap(m *machine.Machine, v *policy.Violation) *machine.Trap {
	return &machine.Trap{Kind: machine.TrapHostError, PC: m.PC, Ins: "syscall", Err: v}
}

// taintedBytes reads per-byte taint for a guest buffer; without tracking
// it returns all-clean.
func (w *World) taintedBytes(addr uint64, n int) ([]bool, error) {
	if w.Tags == nil {
		return make([]bool, n), nil
	}
	return w.Tags.TaintedBytes(addr, n)
}

// channelBytes reads per-byte birth channels for a guest buffer, feeding
// the policy engine's per-channel rule keying. Without tracking (or on a
// read error, which taintedBytes will surface) it returns nil, which the
// checks treat as "no provenance info".
func (w *World) channelBytes(addr uint64, n int) []taint.Channel {
	if w.Tags == nil {
		return nil
	}
	cb, err := w.Tags.ChannelBytes(addr, n)
	if err != nil {
		return nil
	}
	return cb
}

// liveChannels is the union of taint birth channels live in the space,
// the provenance signal available to NaT-consumption trap classification
// (register tokens themselves carry only the one NaT bit).
func (w *World) liveChannels() taint.Channel {
	if w.Tags == nil {
		return 0
	}
	return w.Tags.Live()
}

// maxIOTransfer caps a single read/write/recv/send/html_write transfer.
const maxIOTransfer = 1 << 20

// ioCount validates a guest-supplied byte count. A negative count used
// to flow through bare int(n) conversions: it bypassed the available-
// data cap (the comparison count > avail is false for negative counts),
// echoed garbage through r8, turned into a huge uint64 cycle charge, and
// on the output paths made the host allocate a negative-length buffer.
// Malformed counts now fail the syscall with -1 instead.
func ioCount(n int64) (int, bool) {
	if n < 0 || n > maxIOTransfer {
		return 0, false
	}
	return int(n), true
}

// failCount sets the EINVAL-style result for a rejected transfer count.
func failCount(m *machine.Machine) (uint64, *machine.Trap) {
	m.GR[isa.RegRet] = -1
	m.NaT[isa.RegRet] = false
	return 0, nil
}

// arg fetches syscall argument i, faulting on a tainted scalar: tainted
// data may not reach the kernel interface through registers (the syscall
// half of policy L3).
func arg(m *machine.Machine, i int) (int64, *machine.Trap) {
	r := uint8(isa.RegArg0 + i)
	if m.NaT[r] {
		return 0, &machine.Trap{Kind: machine.TrapNaTSyscall, PC: m.PC, Reg: r, Ins: "syscall"}
	}
	return m.GR[r], nil
}

// Syscall implements machine.SyscallHandler.
func (w *World) Syscall(m *machine.Machine, num int64) (uint64, *machine.Trap) {
	switch num {
	case isa.SysExit:
		status, trap := arg(m, 0)
		if trap != nil {
			return 0, trap
		}
		m.Halt(status)
		return 0, nil

	case isa.SysRead:
		return w.sysRead(m)
	case isa.SysWrite:
		return w.sysWrite(m)
	case isa.SysOpen:
		return w.sysOpen(m)
	case isa.SysRecv:
		return w.sysRecv(m)
	case isa.SysSend:
		return w.sysSend(m)
	case isa.SysSqlExec:
		return w.sysSQL(m)
	case isa.SysSystem:
		return w.sysSystem(m)
	case isa.SysHTMLWrite:
		return w.sysHTML(m)

	case isa.SysSbrk:
		n, trap := arg(m, 0)
		if trap != nil {
			return 0, trap
		}
		if w.brk == 0 {
			w.brk = w.HeapBase
		}
		old := w.brk
		w.brk += uint64((n + 15) &^ 15)
		m.GR[isa.RegRet] = int64(old)
		m.NaT[isa.RegRet] = false
		return 0, nil

	case isa.SysTaint, isa.SysUntaint, isa.SysIsTainted:
		return w.sysTaintOps(m, num)

	case isa.SysGetArg:
		return w.sysGetArg(m)

	case isa.SysPutc:
		c, trap := arg(m, 0)
		if trap != nil {
			return 0, trap
		}
		w.Stdout = append(w.Stdout, byte(c))
		return 1, nil

	case isa.SysSpawn:
		return w.sysSpawn(m)

	case isa.SysJoin:
		tid, trap := arg(m, 0)
		if trap != nil {
			return 0, trap
		}
		if w.Sched == nil || !w.Sched.Join(m.TID, int(tid)) {
			m.GR[isa.RegRet] = -1
		} else {
			m.GR[isa.RegRet] = 0
			m.YieldReq = true
		}
		m.NaT[isa.RegRet] = false
		return 0, nil

	case isa.SysYield:
		m.YieldReq = true
		return 0, nil

	case isa.SysUserAlert:
		// A §3.3.3 user-level guard (chk.s before a critical use)
		// caught a taint token and transferred control here instead of
		// taking a hardware fault.
		if t := w.syncSink(m, "user_alert"); t != nil {
			return 0, t
		}
		v := &policy.Violation{
			Policy: "L3",
			Detail: fmt.Sprintf("user-level chk.s handler caught tainted critical data (pc=%d)", m.PC),
		}
		if w.Engine != nil {
			w.Engine.Alerts = append(w.Engine.Alerts, v)
		}
		w.emit(m, trace.Event{Kind: trace.KindViolation, Name: v.Policy})
		return 0, violationTrap(m, v)
	}
	return 0, hostTrap(m, fmt.Errorf("unknown syscall %d", num))
}

// threadStackSlice separates per-thread stacks inside region 2.
const threadStackSlice = 1 << 20

// maxThreads bounds spawned threads so stacks stay inside the region.
const maxThreads = 15

func (w *World) sysSpawn(m *machine.Machine) (uint64, *machine.Trap) {
	namePtr, trap := arg(m, 0)
	if trap != nil {
		return 0, trap
	}
	threadArg, trap := arg(m, 1)
	if trap != nil {
		return 0, trap
	}
	if w.Sched == nil {
		return 0, hostTrap(m, fmt.Errorf("spawn: no scheduler installed"))
	}
	name, f := m.Mem.ReadCString(uint64(namePtr), 256)
	if f != nil {
		return 0, hostTrap(m, f)
	}
	entry, ok := m.Prog.Symbols[name]
	if !ok || len(w.Sched.Threads) >= maxThreads {
		m.GR[isa.RegRet] = -1
		m.NaT[isa.RegRet] = false
		return 0, nil
	}
	sp := w.StackTop - uint64(len(w.Sched.Threads))*threadStackSlice
	tid := w.Sched.Spawn(entry, threadArg, sp)
	if w.Effects != nil {
		w.Effects.OnSpawn(m.TID, tid)
	}
	w.emit(m, trace.Event{Kind: trace.KindSpawn, N: uint64(tid), Name: name})
	m.GR[isa.RegRet] = int64(tid)
	m.NaT[isa.RegRet] = false
	return 0, nil
}

func (w *World) sysRead(m *machine.Machine) (uint64, *machine.Trap) {
	fd, trap := arg(m, 0)
	if trap != nil {
		return 0, trap
	}
	buf, trap := arg(m, 1)
	if trap != nil {
		return 0, trap
	}
	n, trap := arg(m, 2)
	if trap != nil {
		return 0, trap
	}
	var src []byte
	var off *int
	channel := "file"
	switch {
	case fd == 0:
		src, off, channel = w.Stdin, &w.stdinOff, "stdin"
	case fd >= 3 && int(fd-3) < len(w.fds) && w.fds[fd-3] != nil:
		f := w.fds[fd-3]
		src, off = w.Files[f.path], &f.off
	default:
		m.GR[isa.RegRet] = -1
		m.NaT[isa.RegRet] = false
		return 0, nil
	}
	count, ok := ioCount(n)
	if !ok {
		return failCount(m)
	}
	avail := len(src) - *off
	if avail < 0 {
		avail = 0
	}
	if count > avail {
		count = avail
	}
	if count > 0 {
		if f := m.Mem.WriteBytes(uint64(buf), src[*off:*off+count]); f != nil {
			return 0, hostTrap(m, f)
		}
		*off += count
		w.notifyWrite(m, uint64(buf), count)
		if err := w.markTaint(m, uint64(buf), count, channel); err != nil {
			return 0, hostTrap(m, err)
		}
	}
	m.GR[isa.RegRet] = int64(count)
	m.NaT[isa.RegRet] = false
	return uint64(count) * w.IO.PerByte, nil
}

func (w *World) sysWrite(m *machine.Machine) (uint64, *machine.Trap) {
	_, trap := arg(m, 0)
	if trap != nil {
		return 0, trap
	}
	buf, trap := arg(m, 1)
	if trap != nil {
		return 0, trap
	}
	n, trap := arg(m, 2)
	if trap != nil {
		return 0, trap
	}
	count, ok := ioCount(n)
	if !ok {
		return failCount(m)
	}
	b, f := m.Mem.ReadBytes(uint64(buf), count)
	if f != nil {
		return 0, hostTrap(m, f)
	}
	w.Stdout = append(w.Stdout, b...)
	m.GR[isa.RegRet] = int64(count)
	m.NaT[isa.RegRet] = false
	return uint64(count) * w.IO.PerByte, nil
}

func (w *World) sysOpen(m *machine.Machine) (uint64, *machine.Trap) {
	pathPtr, trap := arg(m, 0)
	if trap != nil {
		return 0, trap
	}
	if _, t := arg(m, 1); t != nil { // flags
		return 0, t
	}
	path, f := m.Mem.ReadCString(uint64(pathPtr), 4096)
	if f != nil {
		return 0, hostTrap(m, f)
	}
	w.Opened = append(w.Opened, path)
	if w.Engine != nil {
		tb, err := w.taintedBytes(uint64(pathPtr), len(path))
		if err != nil {
			return 0, hostTrap(m, err)
		}
		if trap := w.checkSink(m, "open", w.Engine.CheckOpen(path, tb, w.channelBytes(uint64(pathPtr), len(path)))); trap != nil {
			return 0, trap
		}
	}
	if _, ok := w.Files[path]; !ok {
		m.GR[isa.RegRet] = -1
		m.NaT[isa.RegRet] = false
		return w.IO.PerOpen, nil
	}
	w.fds = append(w.fds, &file{path: path})
	m.GR[isa.RegRet] = int64(len(w.fds) - 1 + 3)
	m.NaT[isa.RegRet] = false
	return w.IO.PerOpen, nil
}

func (w *World) sysRecv(m *machine.Machine) (uint64, *machine.Trap) {
	buf, trap := arg(m, 0)
	if trap != nil {
		return 0, trap
	}
	n, trap := arg(m, 1)
	if trap != nil {
		return 0, trap
	}
	count, ok := ioCount(n)
	if !ok {
		return failCount(m)
	}
	avail := len(w.NetIn) - w.netOff
	if count > avail {
		count = avail
	}
	if count > 0 {
		if f := m.Mem.WriteBytes(uint64(buf), w.NetIn[w.netOff:w.netOff+count]); f != nil {
			return 0, hostTrap(m, f)
		}
		w.netOff += count
		w.notifyWrite(m, uint64(buf), count)
		if err := w.markTaint(m, uint64(buf), count, "network"); err != nil {
			return 0, hostTrap(m, err)
		}
	}
	m.GR[isa.RegRet] = int64(count)
	m.NaT[isa.RegRet] = false
	return uint64(count) * w.IO.PerByte, nil
}

func (w *World) sysSend(m *machine.Machine) (uint64, *machine.Trap) {
	buf, trap := arg(m, 0)
	if trap != nil {
		return 0, trap
	}
	n, trap := arg(m, 1)
	if trap != nil {
		return 0, trap
	}
	count, ok := ioCount(n)
	if !ok {
		return failCount(m)
	}
	b, f := m.Mem.ReadBytes(uint64(buf), count)
	if f != nil {
		return 0, hostTrap(m, f)
	}
	w.NetOut = append(w.NetOut, b...)
	m.GR[isa.RegRet] = int64(count)
	m.NaT[isa.RegRet] = false
	return uint64(count) * w.IO.PerByte, nil
}

func (w *World) sysSQL(m *machine.Machine) (uint64, *machine.Trap) {
	qPtr, trap := arg(m, 0)
	if trap != nil {
		return 0, trap
	}
	q, f := m.Mem.ReadCString(uint64(qPtr), 65536)
	if f != nil {
		return 0, hostTrap(m, f)
	}
	w.SQLLog = append(w.SQLLog, q)
	if w.Engine != nil {
		tb, err := w.taintedBytes(uint64(qPtr), len(q))
		if err != nil {
			return 0, hostTrap(m, err)
		}
		if trap := w.checkSink(m, "sql", w.Engine.CheckSQL(q, tb, w.channelBytes(uint64(qPtr), len(q)))); trap != nil {
			return 0, trap
		}
	}
	m.GR[isa.RegRet] = 0
	m.NaT[isa.RegRet] = false
	return uint64(len(q)), nil
}

func (w *World) sysSystem(m *machine.Machine) (uint64, *machine.Trap) {
	cPtr, trap := arg(m, 0)
	if trap != nil {
		return 0, trap
	}
	cmd, f := m.Mem.ReadCString(uint64(cPtr), 65536)
	if f != nil {
		return 0, hostTrap(m, f)
	}
	w.SysLog = append(w.SysLog, cmd)
	if w.Engine != nil {
		tb, err := w.taintedBytes(uint64(cPtr), len(cmd))
		if err != nil {
			return 0, hostTrap(m, err)
		}
		if trap := w.checkSink(m, "system", w.Engine.CheckSystem(cmd, tb, w.channelBytes(uint64(cPtr), len(cmd)))); trap != nil {
			return 0, trap
		}
	}
	m.GR[isa.RegRet] = 0
	m.NaT[isa.RegRet] = false
	return uint64(len(cmd)), nil
}

func (w *World) sysHTML(m *machine.Machine) (uint64, *machine.Trap) {
	buf, trap := arg(m, 0)
	if trap != nil {
		return 0, trap
	}
	n, trap := arg(m, 1)
	if trap != nil {
		return 0, trap
	}
	count, ok := ioCount(n)
	if !ok {
		return failCount(m)
	}
	b, f := m.Mem.ReadBytes(uint64(buf), count)
	if f != nil {
		return 0, hostTrap(m, f)
	}
	if w.Engine != nil {
		tb, err := w.taintedBytes(uint64(buf), count)
		if err != nil {
			return 0, hostTrap(m, err)
		}
		if trap := w.checkSink(m, "html", w.Engine.CheckHTML(b, tb, w.channelBytes(uint64(buf), len(b)))); trap != nil {
			return 0, trap
		}
	}
	w.HTMLOut = append(w.HTMLOut, b...)
	m.GR[isa.RegRet] = int64(count)
	m.NaT[isa.RegRet] = false
	return uint64(count) * w.IO.PerByte, nil
}

func (w *World) sysTaintOps(m *machine.Machine, num int64) (uint64, *machine.Trap) {
	buf, trap := arg(m, 0)
	if trap != nil {
		return 0, trap
	}
	n, trap := arg(m, 1)
	if trap != nil {
		return 0, trap
	}
	switch num {
	case isa.SysTaint:
		if w.Tags != nil {
			if err := w.Tags.SetRange(uint64(buf), uint64(n)); err != nil {
				return 0, hostTrap(m, err)
			}
			if w.Effects != nil && n > 0 {
				w.Effects.HostTaint(uint64(buf), uint64(n))
			}
			w.emit(m, trace.Event{Kind: trace.KindTaint, Addr: uint64(buf), N: uint64(n), Name: "syscall"})
		}
	case isa.SysUntaint:
		if w.Tags != nil {
			if err := w.Tags.ClearRange(uint64(buf), uint64(n)); err != nil {
				return 0, hostTrap(m, err)
			}
			if w.Effects != nil && n > 0 {
				w.Effects.HostUntaint(uint64(buf), uint64(n))
			}
			w.emit(m, trace.Event{Kind: trace.KindUntaint, Addr: uint64(buf), N: uint64(n)})
		}
	case isa.SysIsTainted:
		var res int64
		if w.Tags != nil {
			t, err := w.Tags.Tainted(uint64(buf), uint64(n))
			if err != nil {
				return 0, hostTrap(m, err)
			}
			if t {
				res = 1
			}
		}
		m.GR[isa.RegRet] = res
		m.NaT[isa.RegRet] = false
	}
	return 0, nil
}

func (w *World) sysGetArg(m *machine.Machine) (uint64, *machine.Trap) {
	i, trap := arg(m, 0)
	if trap != nil {
		return 0, trap
	}
	buf, trap := arg(m, 1)
	if trap != nil {
		return 0, trap
	}
	capacity, trap := arg(m, 2)
	if trap != nil {
		return 0, trap
	}
	if i < 0 || int(i) >= len(w.Args) || capacity <= 0 {
		m.GR[isa.RegRet] = -1
		m.NaT[isa.RegRet] = false
		return 0, nil
	}
	s := w.Args[i]
	if int64(len(s)+1) > capacity {
		s = s[:capacity-1]
	}
	if f := m.Mem.WriteBytes(uint64(buf), append([]byte(s), 0)); f != nil {
		return 0, hostTrap(m, f)
	}
	w.notifyWrite(m, uint64(buf), len(s)+1)
	if err := w.markTaint(m, uint64(buf), len(s), "args"); err != nil {
		return 0, hostTrap(m, err)
	}
	m.GR[isa.RegRet] = int64(len(s))
	m.NaT[isa.RegRet] = false
	return 0, nil
}
