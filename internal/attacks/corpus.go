package attacks

// The structured attack corpus: every Table-2 row plus the extension
// scenarios, each annotated with the verdict kind its detection takes
// (an H-policy sink alert vs. an L-policy NaT-consumption trap) and the
// birth channel of the taint that drives it. The channel annotation is
// what the per-channel policy keying (policy.Config.Channels) is
// evaluated against in the precision matrix.

import (
	"shift/internal/shift"
	"shift/internal/taint"
)

// Verdict kinds a scenario's detection can take.
const (
	// KindSink: the exploit is caught by a high-level policy check at a
	// syscall sink (H1–H5) — the run ends in a policy Alert whose trap
	// is synthetic.
	KindSink = "sink"
	// KindTrap: the exploit is caught by the hardware NaT-consumption
	// machinery (L1–L3) — the run ends in a policy Alert wrapping a real
	// machine trap.
	KindTrap = "trap"
)

// Scenario is one corpus entry: an Attack plus the metadata the matrix
// and the channel-keyed policies need.
type Scenario struct {
	*Attack

	// Name is the short stable slug the matrix, shiftattack -list, and
	// tests key on (Attack.Program is a long human-readable title).
	Name string
	// Kind is KindSink or KindTrap — which detection path the expected
	// policy uses. The run harness verifies the verdict arrived through
	// the matching path (satellite: trap and sink detections must not be
	// conflated).
	Kind string
	// Channel is the union of birth channels the exploit's taint is born
	// from.
	Channel taint.Channel
	// Asm marks Source as hand-written assembly (shift.BuildAsm) rather
	// than minic.
	Asm bool
	// Eval, when non-nil, replaces the standard benign/exploit/baseline
	// evaluation with a scenario-specific harness (the pool-bleed entry
	// needs a cross-request lifecycle, not three isolated runs).
	// It receives the options with their policy already resolved.
	Eval func(opt shift.Options) (*Outcome, error)
}

// kindOf derives the verdict kind from a policy ID.
func kindOf(policyID string) string {
	if len(policyID) > 0 && policyID[0] == 'L' {
		return KindTrap
	}
	return KindSink
}

// wrap annotates a Table-2 attack as a corpus scenario.
func wrap(name string, a *Attack, ch taint.Channel) *Scenario {
	return &Scenario{Attack: a, Name: name, Kind: kindOf(a.Expect), Channel: ch}
}

// ScenarioMeta is the JSON-friendly scenario listing (shiftattack -list
// -json).
type ScenarioMeta struct {
	Name     string `json:"name"`
	CVE      string `json:"cve"`
	Program  string `json:"program"`
	Language string `json:"language"`
	Type     string `json:"type"`
	Policies string `json:"policies"`
	Expect   string `json:"expect"`
	Kind     string `json:"kind"`
	Channel  string `json:"channel"`
}

// Meta renders the scenario's corpus metadata.
func (s *Scenario) Meta() ScenarioMeta {
	return ScenarioMeta{
		Name:     s.Name,
		CVE:      s.CVE,
		Program:  s.Program,
		Language: s.Language,
		Type:     s.Type,
		Policies: s.Policies,
		Expect:   s.Expect,
		Kind:     s.Kind,
		Channel:  s.Channel.String(),
	}
}

// FormatStringArgv is a command-line variant of the Bftpd format-string
// gadget: the format string arrives through argv instead of the network,
// so its taint is born from the args channel. A log utility formats its
// own command line; %<idx>n writes through an attacker-chosen slot.
var FormatStringArgv = &Attack{
	CVE:      "EXT-FMT-ARGV",
	Program:  "syslog helper (extension)",
	Language: "C",
	Type:     "Format string attack",
	Policies: "L2",
	Expect:   "L2",
	Source: `
char msg[128];
int slots[64];

void format_log(char *fmt) {
	int i = 0;
	int count = 0;
	while (fmt[i]) {
		if (fmt[i] == '%') {
			i++;
			int idx = 0;
			while (fmt[i] >= '0' && fmt[i] <= '9') {
				idx = idx * 10 + (fmt[i] - '0');
				i++;
			}
			if (fmt[i] == 'n') {
				slots[idx] = count;
				i++;
			}
		} else {
			count++;
			i++;
		}
	}
}

void main() {
	int n = getarg(1, msg, 128);
	if (n <= 0) exit(1);
	// The vulnerability: argv[1] is used as a format string.
	format_log(msg);
	putc(10);
	exit(0);
}
`,
	Benign: func() *shift.World {
		w := shift.NewWorld()
		w.Args = []string{"logger", "session started"}
		return w
	},
	Exploit: func() *shift.World {
		w := shift.NewWorld()
		w.Args = []string{"logger", "aaaaaaaaaaaa%9n"}
		return w
	},
}

// HeapOverflow is a heap-overwrite scenario: a request record is
// allocated on the heap with a trusted dispatch slot after the name
// buffer, and the copy loop trusts the wire length. The overflow lands
// attacker bytes in the slot; the dispatch store through it is a tainted
// store address — L2, the DIFT view of a heap corruption turning into a
// control overwrite.
var HeapOverflow = &Attack{
	CVE:      "EXT-HEAP",
	Program:  "record server (extension)",
	Language: "C",
	Type:     "Heap overwrite",
	Policies: "L2",
	Expect:   "L2",
	Source: `
char req[128];
int table[16];

void main() {
	int n = recv(req, 128);
	if (n <= 0) exit(1);
	char *rec = sbrk(68);
	// rec[0..63] is the record name; rec[64] is the dispatch slot the
	// server fills in itself.
	rec[64] = 3;
	// The vulnerability: the copy loop trusts the wire length and can
	// run past the 64-byte name field into the slot.
	int i;
	for (i = 0; i < n; i++) rec[i] = req[i];
	int slot = rec[64];
	table[slot] = 1;
	send("ok", 2);
	exit(0);
}
`,
	Benign: netWorld("alpha record"),
	Exploit: func() *shift.World {
		w := shift.NewWorld()
		payload := make([]byte, 66)
		for i := range payload {
			payload[i] = 'A'
		}
		payload[64] = '!' // lands in the dispatch slot
		w.NetIn = payload
		return w
	},
}

// UseAfterFree is a dangling-handle scenario: the session block is
// returned to a bump allocator on QUIT, immediately reallocated for the
// client's parting message, and then read through the stale handle. The
// recycled bytes are attacker data, so the lookup offset fetched through
// the dangling reference drives a tainted-address load — L1.
var UseAfterFree = &Attack{
	CVE:      "EXT-UAF",
	Program:  "session cache (extension)",
	Language: "C",
	Type:     "Use after free",
	Policies: "L1",
	Expect:   "L1",
	Source: `
char req[64];
char slab[64];
char table[256];
char out[8];
int next;

int alloc8() {
	int p = next;
	next = next + 8;
	return p;
}

void main() {
	int n = recv(req, 64);
	if (n <= 0) exit(1);
	next = 0;
	// The session block holds the lookup offset the reply handler uses.
	int session = alloc8();
	slab[session] = 7;
	if (req[0] == 'Q') {
		// QUIT tears the session down early: the block goes back to the
		// allocator — but the handle survives below.
		next = session;
		// Connection bookkeeping reallocates the same block for the
		// client's parting message.
		int msg = alloc8();
		int i;
		for (i = 0; i + 1 < n && i < 8; i++) slab[msg + i] = req[i + 1];
	}
	// The vulnerability: use after free through the stale handle.
	int off = slab[session];
	out[0] = table[off];
	send(out, 1);
	exit(0);
}
`,
	Benign:  netWorld("HELO cache"),
	Exploit: netWorld("QUIT!goodbye"),
}

// specLeakAsm is the Spectre-style gadget, written at the assembly level
// because it needs the speculation instructions minic never emits. A
// secret key is read from disk (file-channel taint) next to a public
// 8-entry lookup table; the request index is sanitised (untaint models a
// bounds-checking parser the operator vouched for) — but the bounds
// check is off by one and the table load was compiler-hoisted as ld.s
// above it. Index 8 reads table[8] — the first word of the secret —
// speculatively and without faulting; the chk.s recovery path re-runs
// the load non-speculatively, and the probe-array access that encodes
// the value in an address (the cache side channel analogue) consumes
// the taint: L1.
const specLeakAsm = `
	.data
table:
	.word8 10, 11, 12, 13, 14, 15, 16, 17
secret:
	.space 8
probe:
	.space 512
req:
	.space 8
out:
	.space 8
keypath:
	.asciz "secret.key"
	.text
	.entry main
main:
	; read the secret key from disk — file-channel taint lands at 'secret'
	movl r32 = keypath
	movl r33 = 0
	syscall 4              ; open(keypath, 0) -> r8
	mov r14 = r8
	mov r32 = r14
	movl r33 = secret
	movl r34 = 8
	syscall 2              ; read(fd, secret, 8)
	; receive the request: one ASCII digit, the table index
	movl r32 = req
	movl r33 = 8
	syscall 5              ; recv(req, 8)
	movl r15 = req
	ld1 r16 = [r15]
	addi r16 = r16, -48    ; idx = req[0] - '0'
	st8 [r15] = r16
	; the sanitiser: the parser validated the digit, so the operator
	; vouches the buffer clean before the index is consumed
	movl r32 = req
	movl r33 = 8
	syscall 12             ; untaint(req, 8)
	ld8 r16 = [r15]        ; reload the sanitised index
	; compiler-hoisted speculative load of table[idx]
	shli r17 = r16, 3
	movl r18 = table
	add r17 = r17, r18
	ld8.s r19 = [r17]      ; hoisted above the bounds check
	; the bounds check — off by one: permits idx == 8, and table[8]
	; is the first word of the secret
	cmpi.gt p6, p7 = r16, 8
	(p6) br reject
	chk.s r19, recover
use:
	; encode the value in a probe-array address (the cache side channel)
	andi r20 = r19, 7
	shli r20 = r20, 3
	movl r21 = probe
	add r20 = r20, r21
	ld8 r22 = [r20]        ; tainted address on the exploit path -> L1
	movl r23 = out
	st8 [r23] = r22
	movl r32 = out
	movl r33 = 8
	syscall 6              ; send(out, 8)
	movl r32 = 0
	syscall 1
recover:
	ld8 r19 = [r17]        ; non-speculative re-execution
	br use
reject:
	movl r32 = 1
	syscall 1
`

// SpecLeak is the misspeculated-path leak scenario: a bounds-check-
// bypassed ld.s loads file-tainted secret data, the chk.s-recovered
// path keeps it, and the probe access leaks it — closing the loop on the
// paper's title by running an attack *through* the speculation
// machinery itself.
var SpecLeak = &Attack{
	CVE:      "EXT-SPEC",
	Program:  "key lookup service (extension)",
	Language: "asm",
	Type:     "Speculative leak",
	Policies: "L1",
	Expect:   "L1",
	Source:   specLeakAsm,
	Benign: func() *shift.World {
		w := shift.NewWorld()
		w.Files["secret.key"] = []byte("hunter2\x00")
		w.NetIn = []byte("3")
		return w
	},
	Exploit: func() *shift.World {
		w := shift.NewWorld()
		w.Files["secret.key"] = []byte("hunter2\x00")
		w.NetIn = []byte("8")
		return w
	},
}

// PoolBleed is the cross-request taint-bleed scenario promoted from the
// pool lifecycle tests: request A sprays network taint into a warm
// guest's buffers; a recycle that skips the tag clear smuggles those
// tags under request B's trusted-channel query, and H3 fires on a benign
// tenant. Its exploit is a *lifecycle* (two requests over one guest), so
// it evaluates through a custom harness (see runPoolBleed in run.go).
var PoolBleed = &Attack{
	CVE:      "EXT-POOL",
	Program:  "pooled worker (extension)",
	Language: "C",
	Type:     "Cross-request taint bleed",
	Policies: "H3",
	Expect:   "H3",
	Source: `
char buf[64];

void main() {
	int n = recv(buf, 64);
	if (n > 0) {
		exit(0);
	}
	n = read(0, buf, 64);
	sql_exec(buf);
	exit(0);
}
`,
	// Benign/Exploit build the two tenants' worlds; the custom harness
	// sequences them over one guest.
	Benign: func() *shift.World {
		w := shift.NewWorld()
		w.Stdin = []byte("SELECT 'ok'")
		return w
	},
	Exploit: func() *shift.World {
		w := shift.NewWorld()
		rec := make([]byte, 64)
		copy(rec, "payload: anything tainted will do")
		w.NetIn = rec
		return w
	},
}

// Scenarios beyond Table 2, with their corpus metadata.
var (
	scnCmdInjection = wrap("cmd-injection", CmdInjection, taint.ChanNetwork)
	scnFormatArgv   = wrap("fmt-argv", FormatStringArgv, taint.ChanArgs)
	scnHeapOverflow = wrap("heap-overflow", HeapOverflow, taint.ChanNetwork)
	scnUseAfterFree = wrap("use-after-free", UseAfterFree, taint.ChanNetwork)
	scnSpecLeak     = &Scenario{Attack: SpecLeak, Name: "spec-leak", Kind: KindTrap, Channel: taint.ChanFile | taint.ChanNetwork, Asm: true}
	scnPoolBleed    = &Scenario{Attack: PoolBleed, Name: "pool-bleed", Kind: KindSink, Channel: taint.ChanNetwork}
)

// Installed here rather than in the literal: runPoolBleed names
// scnPoolBleed, and Go rejects the initialization cycle.
func init() { scnPoolBleed.Eval = runPoolBleed }

// Table2Scenarios returns the paper's Table 2 rows as channel-annotated
// scenarios, in the paper's order.
func Table2Scenarios() []*Scenario {
	return []*Scenario{
		wrap("gnu-tar", GnuTar, taint.ChanFile),
		wrap("gnu-gzip", GnuGzip, taint.ChanFile),
		wrap("qwikiwiki", Qwikiwiki, taint.ChanNetwork),
		wrap("scry", Scry, taint.ChanNetwork),
		wrap("php-stats", PhpStats, taint.ChanNetwork),
		wrap("php-sysinfo", PhpSysInfo, taint.ChanNetwork),
		wrap("php-myfaq", PhpMyFAQ, taint.ChanNetwork),
		wrap("bftpd", Bftpd, taint.ChanNetwork),
	}
}

// Corpus returns every scenario: the Table 2 rows, the H4 extension,
// and the structured additions (format string via argv, heap overwrite,
// use after free, pool bleed, and the speculative leak).
func Corpus() []*Scenario {
	return append(Table2Scenarios(),
		scnCmdInjection,
		scnFormatArgv,
		scnHeapOverflow,
		scnUseAfterFree,
		scnPoolBleed,
		scnSpecLeak,
	)
}
