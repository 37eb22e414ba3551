"""Golden seed-draw transcript: the mc2 contract as an executable fixture.

``docs/architecture.md`` documents the serial per-stream draw order every
attach flavor must reproduce verbatim: walking the model's quantized
layers in ``modules()`` order, one ``integers(0, 2**63)`` draw per weight
site (drawn even when the variation routing then skips the hook on a
binary layer), one extra draw for an installed LSTM recurrent-matrix
hook, then — for variation kinds — one draw per sign-activation site.
These tests freeze that prose into a hand-rolled golden walk and assert
that

* serial :meth:`FaultInjector.attach` consumes exactly the golden
  transcript (values *and* count — batching the draws into one
  ``integers(size=n)`` call must not shift the stream),
* :meth:`attach_scenario_batched`, for the cells of one scenario and of
  several, consumes each cell's stream identically to a serial attach of
  that cell, and
* :func:`~repro.faults.executor.evaluate_cell` hands the attach exactly
  the cell's fault stream, once,

and that the result store keeps the ``mc2`` contract: a stacked run is
served from, and feeds, the same entries as a per-cell run.

A transcript mismatch here means cached campaign results under the mc2
contract would silently change — treat any edit that moves these
transcripts as a cache-contract bump, not a test fix.
"""

import numpy as np

from repro import nn
from repro.eval import (
    build_task,
    campaign_key,
    result_store,
    run_robustness_sweep,
)
from repro.eval.cache import RNG_CONTRACT
from repro.faults import (
    EngineConfig,
    FaultInjector,
    FaultSpec,
    WorkCell,
    bitflip_sweep,
    cell_rngs,
    evaluate_cell,
)
from repro.faults import executor as executor_mod
from repro.models import proposed
from repro.quant import (
    QuantConv2d,
    QuantLinear,
    QuantLSTMCell,
    SignActivation,
)
from repro.quant.layers import QuantizedComputeLayer
from repro.tensor import manual_seed

SPEC_BY_KIND = {
    "bitflip": FaultSpec(kind="bitflip", level=0.1),
    "additive": FaultSpec(kind="additive", level=0.3),
    "multiplicative": FaultSpec(kind="multiplicative", level=0.2),
    "uniform": FaultSpec(kind="uniform", level=0.2),
    "stuck": FaultSpec(kind="stuck", level=0.1, stuck_to="high"),
    "drift": FaultSpec(kind="drift", level=24.0),
}


class TranscriptNet(nn.Module):
    """Mixed-site model covering every branch of the draw-order table.

    A binary conv (variation kinds draw its seed then skip the hook), a
    multi-bit LSTM cell (extra recurrent-matrix draw), a multi-bit head,
    and two sign activations (variation kinds draw one seed each).  The
    transcript tests never run a forward, so no ``forward`` is defined.
    """

    def __init__(self):
        super().__init__()
        self.conv = QuantConv2d(1, 2, 3, padding=1, weight_bits=1)
        self.sign = SignActivation()
        self.lstm = QuantLSTMCell(4, 3, weight_bits=8)
        self.head = QuantLinear(3, 2, weight_bits=8)
        self.sign_out = SignActivation()


def build_model():
    manual_seed(0)
    return TranscriptNet()


class TranscriptRng:
    """Generator wrapper logging every value ``integers`` hands out."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.draws = []

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        if np.ndim(out) == 0:
            self.draws.append(int(out))
        else:
            self.draws.extend(int(v) for v in np.asarray(out).ravel())
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def golden_transcript(model, spec, rng: np.random.Generator):
    """The documented serial draw order, as literal sequential scalar draws."""
    weight_sites = [
        m for m in model.modules() if isinstance(m, QuantizedComputeLayer)
    ]
    act_sites = [m for m in model.modules() if isinstance(m, SignActivation)]
    draws = []
    for layer in weight_sites:
        draws.append(int(rng.integers(0, 2**63)))
        if spec.is_variation and layer.weight_bits == 1 and act_sites:
            continue  # hook skipped on binary layers: no recurrent draw either
        if isinstance(layer, QuantLSTMCell):
            draws.append(int(rng.integers(0, 2**63)))
    if spec.is_variation:
        for _ in act_sites:
            draws.append(int(rng.integers(0, 2**63)))
    return draws


class TestSerialTranscript:
    def test_attach_matches_golden_for_every_kind(self):
        model = build_model()
        injector = FaultInjector(model)
        for kind, spec in SPEC_BY_KIND.items():
            golden = golden_transcript(model, spec, np.random.default_rng(99))
            transcript = TranscriptRng(np.random.default_rng(99))
            injector.attach(spec, transcript)
            assert transcript.draws == golden, f"kind={kind}"
            assert len(golden) > 0

    def test_degenerate_specs_draw_nothing(self):
        model = build_model()
        injector = FaultInjector(model)
        for spec in (FaultSpec(kind="none", level=0.0),
                     FaultSpec(kind="bitflip", level=0.0)):
            transcript = TranscriptRng(np.random.default_rng(5))
            injector.attach(spec, transcript)
            assert transcript.draws == []

    def test_binary_skip_still_consumes_the_weight_draw(self):
        """Variation kinds draw the binary conv's seed, then skip its hook."""
        model = build_model()
        injector = FaultInjector(model)
        spec = SPEC_BY_KIND["additive"]
        injector.attach(spec, np.random.default_rng(0))
        assert model.conv.weight_fault is None  # routed to activations
        assert model.lstm.weight_fault is not None
        bitflip = golden_transcript(
            model, SPEC_BY_KIND["bitflip"], np.random.default_rng(99)
        )
        additive = golden_transcript(model, spec, np.random.default_rng(99))
        # Same first draw (the conv seed is consumed either way), different
        # totals (bitflip hooks the conv, additive hooks the activations).
        assert bitflip[0] == additive[0]
        assert len(bitflip) != len(additive)


class TestBatchedTranscripts:
    def test_chip_batched_consumes_each_stream_serially(self):
        model = build_model()
        injector = FaultInjector(model)
        base_seed = 7
        for kind, spec in SPEC_BY_KIND.items():
            goldens = [
                golden_transcript(
                    model, spec, cell_rngs(base_seed, 0, run)[0]
                )
                for run in range(3)
            ]
            transcripts = [
                TranscriptRng(cell_rngs(base_seed, 0, run)[0])
                for run in range(3)
            ]
            injector.attach_scenario_batched([spec] * 3, transcripts)
            for run, (transcript, golden) in enumerate(
                zip(transcripts, goldens)
            ):
                assert transcript.draws == golden, f"kind={kind} run={run}"

    def test_scenario_batched_consumes_each_stream_serially(self):
        model = build_model()
        injector = FaultInjector(model)
        base_seed = 11
        for kind in ("bitflip", "uniform", "stuck"):
            spec = SPEC_BY_KIND[kind]
            specs = [spec, FaultSpec(kind=spec.kind,
                                     level=spec.level * 2,
                                     stuck_to=spec.stuck_to)]
            golden_groups = [
                [
                    golden_transcript(
                        model, s, cell_rngs(base_seed, scenario, run)[0]
                    )
                    for run in range(2)
                ]
                for scenario, s in enumerate(specs)
            ]
            transcript_groups = [
                [
                    TranscriptRng(cell_rngs(base_seed, scenario, run)[0])
                    for run in range(2)
                ]
                for scenario in range(len(specs))
            ]
            injector.attach_scenario_batched(
                [s for s, group in zip(specs, transcript_groups) for _ in group],
                [t for group in transcript_groups for t in group],
            )
            for scenario, (t_group, g_group) in enumerate(
                zip(transcript_groups, golden_groups)
            ):
                for run, (transcript, golden) in enumerate(
                    zip(t_group, g_group)
                ):
                    assert transcript.draws == golden, (
                        f"kind={kind} scenario={scenario} run={run}"
                    )


class TestCellTranscript:
    def test_evaluate_cell_consumes_the_serial_stream(self, monkeypatch):
        calls = []

        def wrapped(base_seed, scenario_index, run_index):
            fault, ev = cell_rngs(base_seed, scenario_index, run_index)
            transcript = TranscriptRng(fault)
            calls.append(((base_seed, scenario_index, run_index), transcript))
            return transcript, ev

        monkeypatch.setattr(executor_mod, "cell_rngs", wrapped)
        model = build_model()
        for kind, spec in SPEC_BY_KIND.items():
            calls.clear()
            # The transcript net has no forward; the metric never runs it.
            evaluate_cell(model, lambda m: 0.0, WorkCell(2, 1, spec), 13)
            assert len(calls) == 1
            coords, transcript = calls[0]
            assert coords == (13, 2, 1)
            golden = golden_transcript(model, spec, cell_rngs(13, 2, 1)[0])
            assert transcript.draws == golden, f"kind={kind}"


def _audio_means(**kwargs):
    """``proposed``'s means over a tiny audio bitflip sweep."""
    task = build_task("audio", preset="tiny")
    sweep = run_robustness_sweep(
        task, [proposed()], bitflip_sweep([0.0, 0.05, 0.1]), preset="tiny",
        n_runs=3, **kwargs,
    )
    return sweep.curves["proposed"].means


def _entries(cache):
    return sorted((cache / "store").rglob("*.npz"))


class TestCacheContract:
    """Stacked passes keep every draw, so they keep the ``mc2`` contract
    (``executor="serial"`` is the per-cell oracle's older spelling)."""

    def test_rng_contract_not_bumped(self):
        """Stacking must not invalidate mc2-era campaign caches."""
        assert RNG_CONTRACT == "mc2"

    def test_stacked_run_served_from_per_cell_entries(self, isolated_cache):
        per_cell = _audio_means(executor="serial")
        task = build_task("audio", preset="tiny")
        for spec in bitflip_sweep([0.0, 0.05, 0.1]):
            key = campaign_key(task, proposed(), spec, 3, 4, 0, None)
            assert result_store().get(key) is not None
        entries = _entries(isolated_cache)
        stacked = _audio_means(engine=EngineConfig(None))
        np.testing.assert_array_equal(per_cell, stacked)
        assert _entries(isolated_cache) == entries  # same keys: nothing new

    def test_per_cell_run_served_from_stacked_entries(self, isolated_cache):
        stacked = _audio_means(engine=EngineConfig(None))
        entries = _entries(isolated_cache)
        np.testing.assert_array_equal(stacked, _audio_means(executor="serial"))
        assert _entries(isolated_cache) == entries

    def test_fresh_stacked_run_matches_fresh_per_cell_run(self, isolated_cache):
        np.testing.assert_array_equal(
            _audio_means(executor="serial", use_cache=False),
            _audio_means(engine=EngineConfig(None), use_cache=False),
        )
