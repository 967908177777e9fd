package metrics

import "context"

// Op classifies an index-level operation for latency and phase
// attribution. OpOther is the zero value: traffic issued outside any
// labelled operation.
type Op int

const (
	OpOther Op = iota
	OpGet
	OpInsert
	OpDelete
	OpRange
	OpMin
	OpMax
	OpScan
	OpBulkLoad
	OpScrub
	NumOps // count sentinel, keep last
)

var opNames = [NumOps]string{
	"other", "get", "insert", "delete", "range",
	"min", "max", "scan", "bulkload", "scrub",
}

func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return "invalid"
	}
	return opNames[o]
}

// Phase classifies which part of an algorithm issued a DHT-lookup.
// PhaseOther is the zero value: the operation's own direct reads and
// writes (e.g. the write-back of an insert).
type Phase int

const (
	PhaseOther   Phase = iota
	PhaseProbe         // Algorithm 2 binary search and cache probes
	PhaseForward       // range/scan forwarding along tree edges (Alg 3/4)
	PhaseSplit         // leaf split traffic (Alg 1 maintenance)
	PhaseMerge         // leaf merge traffic (Alg 1 maintenance)
	PhaseRepair        // torn-state read-repair and scrub repairs
	PhaseRetry         // policy-layer re-attempts after transient faults
	NumPhases          // count sentinel, keep last
)

var phaseNames = [NumPhases]string{
	"other", "probe", "forward", "split", "merge", "repair", "retry",
}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "invalid"
	}
	return phaseNames[p]
}

// Labels are the attribution labels carried on a context: which
// operation class is running and which algorithm phase it is in. The
// zero value (OpOther, PhaseOther) labels unattributed traffic.
type Labels struct {
	Op    Op
	Phase Phase
}

type labelsKey struct{}

// boxedLabels holds every valid Labels value already boxed in an
// interface, built once, so labelling a context allocates only the
// context node and never the value's box.
var boxedLabels = func() (t [NumOps][NumPhases]any) {
	for op := range t {
		for ph := range t[op] {
			t[op][ph] = Labels{Op: Op(op), Phase: Phase(ph)}
		}
	}
	return t
}()

// boxed returns lb as an interface value, pre-boxed when it is valid.
func (lb Labels) boxed() any {
	if lb.Op >= 0 && lb.Op < NumOps && lb.Phase >= 0 && lb.Phase < NumPhases {
		return boxedLabels[lb.Op][lb.Phase]
	}
	return lb
}

// WithOp starts a new operation scope: it labels ctx with the given
// class and resets the phase to PhaseOther. Index entry points call
// this once; everything beneath inherits the class.
func WithOp(ctx context.Context, op Op) context.Context {
	if lb := LabelsFrom(ctx); lb.Op == op && lb.Phase == PhaseOther {
		return ctx
	}
	return context.WithValue(ctx, labelsKey{}, Labels{Op: op}.boxed())
}

// WithPhase labels ctx with the algorithm phase, keeping the operation
// class already on it. Returns ctx unchanged when the phase is already
// set, so it is cheap to call in loops and recursion.
func WithPhase(ctx context.Context, phase Phase) context.Context {
	lb := LabelsFrom(ctx)
	if lb.Phase == phase {
		return ctx
	}
	lb.Phase = phase
	return context.WithValue(ctx, labelsKey{}, lb.boxed())
}

// LabelsFrom returns the attribution labels on ctx, or the zero Labels
// when none are set.
func LabelsFrom(ctx context.Context) Labels {
	lb, _ := ctx.Value(labelsKey{}).(Labels)
	return lb
}
