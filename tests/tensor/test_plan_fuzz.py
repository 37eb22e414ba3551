"""Property-based fuzz harness for the eager ``Tensor`` execution stack.

Hand-rolled (no third-party property-testing dependency): a seeded
:class:`random.Random` generates random op-DAG programs over the
``Tensor`` surface — elementwise chains, frozen constants, shape views
(transpose / reshape / reductions), and stochastic draws from the scoped
generator — and every program is executed three ways:

* **gradient-free** — ``forward`` under :func:`~repro.tensor.no_grad`
  (how campaign evaluation runs every forward);
* **recording** — the same forward with the autograd graph recorded,
  followed by a backward pass that must leave a finite input gradient;
* **repeat** — the gradient-free forward again on the same module.

All three must agree bit-for-bit (``equal_nan`` — a program that
deterministically manufactures a NaN must reproduce *that* NaN).  Every
path re-scopes an identically seeded generator, and each must leave that
generator in the same state, so stochastic draws provably run in the
same order and number on every path.

On failure the harness *shrinks*: instructions are deleted one at a time
while the failure reproduces, and the assertion reports the minimal
failing program plus the case seed that regenerates it.  Operand
references resolve modulo the live value count, so any deletion leaves a
well-formed program — no repair pass needed.

Budget: ``REPRO_FUZZ_PROGRAMS`` (default 40) fixes how many seeded
programs run, so the corpus is stable run to run.
"""

import os
import random

import numpy as np

from repro.nn.module import Module
from repro.tensor import no_grad, ops
from repro.tensor.random import get_rng, scoped_rng
from repro.tensor.tensor import Tensor

N_PROGRAMS = int(os.environ.get("REPRO_FUZZ_PROGRAMS", "40"))
BASE_SHAPE = (3, 4)
MIN_LEN, MAX_LEN = 3, 14
EVAL_SEED = 1234  # the scoped generator every execution path re-seeds

# Instruction vocabulary.  Each entry is (tag, weight); generation picks
# by weight, execution dispatches on tag.  Unary/binary ops stay in the
# saturating family (no exp/log) so long random chains cannot overflow
# into platform-dependent math.
UNARY = ("neg", "sigmoid", "tanh", "relu", "abs")
BINARY = ("add", "sub", "mul")
CONST = ("addc", "mulc")
VIEW = ("transpose", "reshape", "flatten")
INSTR_WEIGHTS = (
    ("unary", 4),
    ("binary", 4),
    ("const", 2),
    ("view", 2),
    ("reduce", 1),
    ("source", 2),
)


def generate_program(case_seed: int) -> list:
    """One random instruction list; fully determined by ``case_seed``."""
    rng = random.Random(case_seed)
    length = rng.randint(MIN_LEN, MAX_LEN)
    tags = [t for t, w in INSTR_WEIGHTS for _ in range(w)]
    program = []
    for _ in range(length):
        tag = rng.choice(tags)
        if tag == "unary":
            program.append(("unary", rng.choice(UNARY), rng.randrange(64)))
        elif tag == "binary":
            program.append(
                ("binary", rng.choice(BINARY), rng.randrange(64), rng.randrange(64))
            )
        elif tag == "const":
            program.append(
                ("const", rng.choice(CONST), rng.randrange(64), rng.randrange(2**31))
            )
        elif tag == "view":
            program.append(("view", rng.choice(VIEW), rng.randrange(64)))
        elif tag == "reduce":
            program.append(("reduce", rng.randrange(64)))
        else:
            program.append(("source", rng.randrange(64)))
    return program


def _pick(vals, index):
    return vals[index % len(vals)]


def _pick_like(vals, anchor, index):
    """A previous value shaped like ``anchor`` (binary operands must match)."""
    same = [v for v in vals if v.shape == anchor.shape]
    return same[index % len(same)]


def _execute(instr, vals):
    tag = instr[0]
    if tag == "unary":
        _, op, src = instr
        v = _pick(vals, src)
        return {
            "neg": lambda t: -t,
            "sigmoid": ops.sigmoid,
            "tanh": ops.tanh,
            "relu": ops.relu,
            "abs": ops.abs_,
        }[op](v)
    if tag == "binary":
        _, op, a_idx, b_idx = instr
        a = _pick(vals, a_idx)
        b = _pick_like(vals, a, b_idx)
        return {"add": lambda x, y: x + y,
                "sub": lambda x, y: x - y,
                "mul": lambda x, y: x * y}[op](a, b)
    if tag == "const":
        _, op, src, const_seed = instr
        v = _pick(vals, src)
        # Frozen per-instruction constant: identical on every execution
        # path.
        const = Tensor(np.random.default_rng(const_seed).normal(size=v.shape))
        return v + const if op == "addc" else v * const
    if tag == "view":
        _, kind, src = instr
        v = _pick(vals, src)
        if kind == "transpose" and v.ndim >= 2:
            return v.transpose()
        if kind == "reshape" and v.ndim >= 2:
            return v.reshape(v.shape[-1], -1)
        return v.flatten()
    if tag == "reduce":
        _, src = instr
        return _pick(vals, src).sum(axis=0, keepdims=True)
    # source: add a stochastic draw from the scoped generator — every
    # path must make it in the same order.
    _, src = instr
    v = _pick(vals, src)
    return v + Tensor(get_rng().standard_normal(v.shape))


class FuzzProgram(Module):
    """Executes one generated instruction list as a root forward."""

    def __init__(self, program):
        super().__init__()
        self.program = program

    def forward(self, x):
        vals = [x]
        for instr in self.program:
            vals.append(_execute(instr, vals))
        # Anchor on the last value and fold in a mid-program value's sum,
        # leaving everything else dead on most programs.
        anchor = vals[-1]
        extra = vals[(len(vals) // 2) % len(vals)]
        return anchor + extra.sum()


def _input_for(case_seed: int) -> np.ndarray:
    return np.random.default_rng(case_seed ^ 0x5EED).normal(size=BASE_SHAPE)


def _run(module, x, record):
    """One forward under a fresh ``EVAL_SEED`` generator.

    Returns ``(output, generator_state_after, input_grad)``; the gradient
    is ``None`` for gradient-free runs.
    """
    generator = np.random.default_rng(EVAL_SEED)
    with scoped_rng(generator):
        if record:
            inp = Tensor(x.copy(), requires_grad=True)
            out = module(inp)
            out.sum().backward()
            grad = inp.grad
        else:
            with no_grad():
                out = module(Tensor(x.copy()))
            grad = None
    return out.data.copy(), generator.bit_generator.state, grad


def _check_case(program, x):
    """Returns None if the program holds the property, else a reason."""
    module = FuzzProgram(program).eval()
    try:
        gradfree, gradfree_state, _ = _run(module, x, record=False)
        recorded, recorded_state, grad = _run(module, x, record=True)
        repeat, repeat_state, _ = _run(module, x, record=False)
    except Exception as exc:  # crashes shrink just like mismatches
        return f"raised {type(exc).__name__}: {exc}"
    for label, got, state in (
        ("recording", recorded, recorded_state),
        ("repeat", repeat, repeat_state),
    ):
        if not np.array_equal(gradfree, got, equal_nan=True):
            return f"{label} forward diverged from the gradient-free forward"
        if state != gradfree_state:
            return f"{label} forward drew a different number of samples"
    if grad is None or grad.shape != x.shape:
        return "recording forward left no input gradient of the input's shape"
    if np.isfinite(recorded).all() and not np.isfinite(grad).all():
        return "finite forward produced a non-finite input gradient"
    return None


def _shrink(program, x, reason):
    """Greedy one-deletion shrinking: smallest program keeping *a* failure."""
    current, current_reason = list(program), reason
    progress = True
    while progress:
        progress = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            if not candidate:
                continue
            candidate_reason = _check_case(candidate, x)
            if candidate_reason is not None:
                current, current_reason = candidate, candidate_reason
                progress = True
                break
    return current, current_reason


def test_fuzz_plan_replay_matches_eager():
    """Gradient-free, recording and repeated forwards agree on every program."""
    failures = []
    for case_seed in range(N_PROGRAMS):
        program = generate_program(case_seed)
        x = _input_for(case_seed)
        reason = _check_case(program, x)
        if reason is None:
            continue
        minimal, minimal_reason = _shrink(program, x, reason)
        failures.append(
            f"case_seed={case_seed}: {reason}\n"
            f"  minimal ({len(minimal)} instrs): {minimal}\n"
            f"  minimal failure: {minimal_reason}"
        )
    assert not failures, (
        f"{len(failures)}/{N_PROGRAMS} fuzz programs violated "
        "forward identity:\n" + "\n".join(failures)
    )


def test_fuzz_generator_is_deterministic():
    """Same seed, same program — the corpus is stable across runs."""
    for case_seed in (0, 7, N_PROGRAMS - 1):
        assert generate_program(case_seed) == generate_program(case_seed)


def test_shrinker_reaches_a_minimal_program():
    """Shrinking a synthetic failure deletes every deletable instruction.

    The predicate ("program still contains a mul") stands in for a real
    divergence; greedy deletion must strip everything else and keep
    exactly the one instruction the predicate needs.
    """
    program = generate_program(3)
    program.append(("binary", "mul", 0, 0))

    def fails(candidate):
        return any(i[0] == "binary" and i[1] == "mul" for i in candidate)

    current = list(program)
    progress = True
    while progress:
        progress = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            if candidate and fails(candidate):
                current = candidate
                progress = True
                break
    assert len(current) == 1 and current[0][1] == "mul"
