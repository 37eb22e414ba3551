"""Unit tests for the Module/Parameter registration system."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, no_grad


class Leaf(nn.Module):
    def __init__(self):
        super().__init__()
        self.weight = nn.Parameter(np.ones(3))
        self.register_buffer("stat", np.zeros(3))

    def forward(self, x):
        return x * self.weight


class Branch(nn.Module):
    def __init__(self):
        super().__init__()
        self.leaf_a = Leaf()
        self.leaf_b = Leaf()
        self.scale = nn.Parameter(np.array([2.0]))

    def forward(self, x):
        return self.leaf_b(self.leaf_a(x)) * self.scale


class TestRegistration:
    def test_parameters_are_registered(self):
        m = Branch()
        names = dict(m.named_parameters())
        assert set(names) == {"leaf_a.weight", "leaf_b.weight", "scale"}

    def test_num_parameters(self):
        assert Branch().num_parameters() == 7

    def test_buffers_are_recursive(self):
        m = Branch()
        assert set(dict(m.named_buffers())) == {"leaf_a.stat", "leaf_b.stat"}

    def test_named_modules(self):
        m = Branch()
        names = [name for name, _ in m.named_modules()]
        assert names == ["", "leaf_a", "leaf_b"]

    def test_children_only_direct(self):
        m = Branch()
        assert len(list(m.children())) == 2

    def test_reassigning_with_non_module_clears_registration(self):
        m = Branch()
        m.leaf_a = None
        assert "leaf_a" not in dict(m.named_modules())

    def test_getattr_raises_for_unknown(self):
        with pytest.raises(AttributeError):
            Branch().unknown_attribute

    def test_apply_visits_all(self):
        m = Branch()
        visited = []
        m.apply(lambda mod: visited.append(type(mod).__name__))
        assert visited.count("Leaf") == 2


class TestModes:
    def test_train_eval_propagates(self):
        m = Branch()
        m.eval()
        assert not m.leaf_a.training and not m.leaf_b.training
        m.train()
        assert m.leaf_a.training

    def test_zero_grad(self):
        m = Branch()
        out = m(Tensor(np.ones(3)))
        out.sum().backward()
        assert m.scale.grad is not None
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())


class TestStateDict:
    def test_round_trip(self):
        m1, m2 = Branch(), Branch()
        m1.scale.data[:] = 7.0
        m1.leaf_a._buffers["stat"][:] = 3.0
        m2.load_state_dict(m1.state_dict())
        assert m2.scale.data[0] == 7.0
        np.testing.assert_allclose(m2.leaf_a._buffers["stat"], 3.0)

    def test_state_dict_values_are_copies(self):
        m = Branch()
        sd = m.state_dict()
        sd["scale"][:] = 99.0
        assert m.scale.data[0] == 2.0

    def test_missing_key_raises(self):
        m = Branch()
        sd = m.state_dict()
        del sd["scale"]
        with pytest.raises(KeyError):
            m.load_state_dict(sd)

    def test_unexpected_key_raises(self):
        m = Branch()
        sd = m.state_dict()
        sd["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            m.load_state_dict(sd)

    def test_shape_mismatch_raises(self):
        m = Branch()
        sd = m.state_dict()
        sd["scale"] = np.zeros(5)
        with pytest.raises(ValueError):
            m.load_state_dict(sd)

    def test_save_load_file(self, tmp_path):
        m1, m2 = Branch(), Branch()
        m1.scale.data[:] = 5.0
        path = str(tmp_path / "ckpt.npz")
        m1.save(path)
        m2.load(path)
        assert m2.scale.data[0] == 5.0

    def test_save_is_uncompressed_and_leaves_no_temp_file(self, tmp_path):
        import zipfile

        m = Branch()
        m.save(str(tmp_path / "ckpt"))  # np.savez appends the suffix
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
        with zipfile.ZipFile(tmp_path / "ckpt.npz") as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_STORED
            }

    def test_load_reads_compressed_checkpoints(self, tmp_path):
        m1, m2 = Branch(), Branch()
        m1.scale.data[:] = 7.0
        path = str(tmp_path / "old.npz")
        np.savez_compressed(path, **m1.state_dict())
        m2.load(path)
        assert m2.scale.data[0] == 7.0


class TestContainers:
    def test_sequential_applies_in_order(self):
        seq = nn.Sequential(nn.Lambda(lambda x: x + 1.0), nn.Lambda(lambda x: x * 2.0))
        out = seq(Tensor(np.array([1.0])))
        np.testing.assert_allclose(out.data, [4.0])

    def test_sequential_indexing_and_len(self):
        seq = nn.Sequential(nn.Identity(), nn.Identity(), nn.Identity())
        assert len(seq) == 3
        assert isinstance(seq[1], nn.Identity)

    def test_sequential_append(self):
        seq = nn.Sequential(nn.Identity())
        seq.append(nn.Identity())
        assert len(seq) == 2

    def test_module_list_registers(self):
        ml = nn.ModuleList([Leaf(), Leaf()])
        assert len(list(ml.named_parameters())) == 2
        assert len(ml) == 2

    def test_module_list_not_callable(self):
        with pytest.raises(RuntimeError):
            nn.ModuleList([])(None)

    def test_identity_passthrough(self):
        x = Tensor(np.arange(3.0))
        assert nn.Identity()(x) is x

    def test_non_tensor_outputs_pass_through(self):
        """Module calls hand non-Tensor outputs back untouched."""

        class TupleOut(nn.Module):
            def forward(self, x):
                return x, x

        model = TupleOut()
        model.eval()
        x = Tensor(np.ones(3))
        with no_grad():
            out = model(x)
        assert isinstance(out, tuple) and out[0] is x and out[1] is x

    def test_repr_contains_children(self):
        text = repr(nn.Sequential(nn.Linear(2, 3)))
        assert "Linear" in text and "in_features=2" in text
