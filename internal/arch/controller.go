package arch

import "fmt"

// Opcode is one of the three basic instructions of an application-specific
// memristor accelerator (Section III.D). Customized instruction sets extend
// the controller by registering extra opcodes with their performance.
type Opcode int

const (
	// OpWrite programs weight cells (one instruction covers Count cells).
	OpWrite Opcode = iota
	// OpRead reads cells back for verification (Count cells).
	OpRead
	// OpCompute runs one full matrix-vector multiplication pass on every
	// unit of the bank selected by Bank.
	OpCompute
)

// String implements fmt.Stringer.
func (o Opcode) String() string {
	switch o {
	case OpWrite:
		return "WRITE"
	case OpRead:
		return "READ"
	case OpCompute:
		return "COMPUTE"
	default:
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
}

// Instruction is one controller operation.
type Instruction struct {
	Op Opcode
	// Bank selects the target computation bank.
	Bank int
	// Count is the cell count for READ/WRITE (ignored for COMPUTE).
	Count int
}

// ExecStats summarises a program run.
type ExecStats struct {
	// Time is the sequential execution time in seconds.
	Time float64
	// Energy is the dynamic energy in joules.
	Energy float64
	// Instructions counts executed instructions.
	Instructions int
}

// Controller executes basic-instruction programs against an accelerator's
// performance model. It is the reference control model; customized designs
// provide their own instruction sets without changing the simulation flow.
type Controller struct {
	Accel *Accelerator
}

// Run executes a program sequentially and accumulates time and energy.
func (c *Controller) Run(program []Instruction) (ExecStats, error) {
	var st ExecStats
	for i, ins := range program {
		if ins.Bank < 0 || ins.Bank >= len(c.Accel.Banks) {
			return st, fmt.Errorf("arch: instruction %d targets bank %d of %d", i, ins.Bank, len(c.Accel.Banks))
		}
		b := c.Accel.Banks[ins.Bank]
		switch ins.Op {
		case OpCompute:
			st.Time += b.PassPerf.Latency
			st.Energy += b.PassPerf.DynamicEnergy
		case OpRead:
			if ins.Count < 1 {
				return st, fmt.Errorf("arch: instruction %d READ count %d invalid", i, ins.Count)
			}
			st.Time += b.Unit.ReadOp.Latency * float64(ins.Count)
			st.Energy += b.Unit.ReadOp.DynamicEnergy * float64(ins.Count)
		case OpWrite:
			if ins.Count < 1 {
				return st, fmt.Errorf("arch: instruction %d WRITE count %d invalid", i, ins.Count)
			}
			st.Time += b.Unit.WriteOp.Latency * float64(ins.Count)
			st.Energy += b.Unit.WriteOp.DynamicEnergy * float64(ins.Count)
		default:
			return st, fmt.Errorf("arch: instruction %d has unknown opcode %d", i, int(ins.Op))
		}
		st.Instructions++
	}
	return st, nil
}

// ProgramNetwork returns the WRITE program that loads every weight of the
// accelerator (executed once at deployment — the paper's observation that
// compute never rewrites cells afterwards).
func ProgramNetwork(a *Accelerator) []Instruction {
	var prog []Instruction
	for i, b := range a.Banks {
		cells := b.Layer.Rows * b.Layer.Cols * b.Design.CellsPerWeight() * b.Design.CrossbarsPerUnit()
		prog = append(prog, Instruction{Op: OpWrite, Bank: i, Count: cells})
	}
	return prog
}
