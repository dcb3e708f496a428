"""Scenario layer: array response, path loss, channel draws, and the spec
parser's scenario keys (`cli.experiment_from_mapping`)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iswpt
from iswpt.cli import experiment_from_mapping, parse_kv_file
from iswpt.scenario import (ChannelSet, SystemConfig, check_hermitian, complex_normal,
                            db_to_linear, path_loss, sample_channels,
                            slice_channels, steering_matrix, trial_stream)


def spec_config(mapping):
    """The SystemConfig that a spec's text builds."""
    return experiment_from_mapping(mapping).config


def steering_vector(theta, n_elements, delta=0.5):
    """The array response at one angle: the single row of steering_matrix."""
    mat = steering_matrix(theta, n_elements, delta)
    assert mat.shape == (1, n_elements)
    return mat[0]


def test_steering_vector_broadside():
    np.testing.assert_allclose(steering_vector(0.0, 4), np.ones(4), atol=1e-15)


def test_steering_vector_endfire_two_elements():
    # sin(pi/2) = 1 with half-wavelength spacing flips the second element.
    np.testing.assert_allclose(steering_vector(math.pi / 2.0, 2),
                               [1.0, -1.0], atol=1e-12)


def test_steering_vector_thirty_degrees():
    # sin(pi/6) = 1/2 gives quarter-turn steps: 1, j, -1.
    np.testing.assert_allclose(steering_vector(math.pi / 6.0, 3),
                               [1.0, 1.0j, -1.0], atol=1e-12)


def test_steering_vector_unit_modulus_and_first_element():
    vec = steering_vector(0.7, 16, delta=0.37)
    np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-15)
    assert vec[0] == 1.0 + 0.0j


def test_steering_matrix_rows_match_vectors():
    # Each row of a stacked call is the closed form at its own angle, and
    # equals a one-angle call bit for bit.
    thetas = np.array([-0.3, 0.0, 1.1])
    mat = steering_matrix(thetas, 6, delta=0.5)
    assert mat.shape == (3, 6)
    for row, theta in zip(mat, thetas):
        np.testing.assert_allclose(
            row, np.exp(1j * math.pi * math.sin(theta) * np.arange(6)), atol=1e-14)
        assert np.array_equal(row, steering_vector(theta, 6))


def test_path_loss_reference_distance():
    assert path_loss(0.1, 1.0, 2.5) == pytest.approx(0.1)


def test_path_loss_reference_scenario_values():
    assert path_loss(0.1, 30.0, 2.5) == pytest.approx(2.0286e-5, rel=1e-4)
    assert path_loss(1.0, 50.0, 3.0) == pytest.approx(8e-6, rel=1e-12)


def test_path_loss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        path_loss(0.1, 0.0, 2.5)
    with pytest.raises(ValueError):
        path_loss(0.1, -3.0, 2.5)
    with pytest.raises(ValueError):
        path_loss(0.0, 10.0, 2.5)


def test_power_unit_conversions():
    # dBm converts to milliwatts: the 30 dBm reference budget is 1000 mW.
    assert db_to_linear(30.0) == pytest.approx(1000.0)
    assert db_to_linear(0.0) == pytest.approx(1.0)
    assert db_to_linear(6.0) == pytest.approx(3.9810717055, rel=1e-9)


def test_complex_normal_unit_second_moment():
    z = complex_normal(trial_stream(7, 0), (100_000,))
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
    # Circular symmetry: real/imag parts each carry half the variance.
    assert np.var(z.real) == pytest.approx(0.5, rel=0.05)
    assert np.var(z.imag) == pytest.approx(0.5, rel=0.05)


def test_sample_channels_shapes():
    config = SystemConfig()
    chans = sample_channels(config, trial_stream(config.seed, 0))
    assert chans.h_br.shape == (config.n_irs, config.n_tx)
    assert chans.h_ru.shape == (config.n_ehd, config.n_irs)
    assert chans.h_d.shape == (config.n_ehd, config.n_tx)


def test_sample_channels_deterministic():
    config = SystemConfig(seed=42)
    first = sample_channels(config, trial_stream(config.seed, 0, 3))
    second = sample_channels(config, trial_stream(config.seed, 0, 3))
    assert np.array_equal(first.h_br, second.h_br)
    assert np.array_equal(first.h_ru, second.h_ru)
    assert np.array_equal(first.h_d, second.h_d)


def test_sample_channels_distinct_streams():
    config = SystemConfig(seed=42)
    a = sample_channels(config, trial_stream(config.seed, 0, 0))
    b = sample_channels(config, trial_stream(config.seed, 0, 1))
    assert not np.allclose(a.h_br, b.h_br)


def test_sample_channels_second_moment():
    # Pool 1e5 entries of h_br; per-entry second moment is the path loss.
    config = SystemConfig(n_tx=20, n_irs=50, n_ehd=2, n_targets=1,
                          target_angles=(0.0,), seed=5)
    pl = path_loss(config.pl_ref, config.dist_tx_irs, config.ple_tx_irs)
    rng = trial_stream(config.seed, 0)
    draws = [sample_channels(config, rng).h_br for _ in range(100)]
    second_moment = np.mean(np.abs(np.stack(draws)) ** 2)
    assert second_moment == pytest.approx(pl, rel=0.02)


def test_channel_set_validates_shapes():
    good = ChannelSet(h_br=np.zeros((4, 3)), h_ru=np.zeros((2, 4)),
                      h_d=np.zeros((2, 3)))
    assert good.h_br.dtype == np.complex128
    with pytest.raises(ValueError):
        ChannelSet(h_br=np.zeros((4, 3)), h_ru=np.zeros((2, 5)),
                   h_d=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ChannelSet(h_br=np.zeros((4, 3)), h_ru=np.zeros((2, 4)),
                   h_d=np.zeros((3, 3)))


def test_channel_set_copies_the_callers_arrays():
    # ChannelSet once froze the caller's own arrays: a later write to them
    # raised "assignment destination is read-only".
    h_br, h_ru, h_d = np.zeros((4, 3), complex), np.zeros((2, 4)), np.zeros((2, 3))
    channels = ChannelSet(h_br=h_br, h_ru=h_ru, h_d=h_d)
    h_br[0, 0], h_ru[0, 0], h_d[0, 0] = 2.0, 3.0, 4.0
    assert channels.h_br[0, 0] == channels.h_ru[0, 0] == channels.h_d[0, 0] == 0.0
    for sliced in (channels, slice_channels(channels, 2)):
        for arr in (sliced.h_br, sliced.h_ru, sliced.h_d):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(n_tx=0)
    with pytest.raises(ValueError):
        SystemConfig(rho=1.5)
    with pytest.raises(ValueError):
        SystemConfig(eta=0.0)
    with pytest.raises(ValueError):
        SystemConfig(n_targets=2)  # default has three target angles
    with pytest.raises(ValueError):
        SystemConfig(seed=-1)
    with pytest.raises(ValueError):
        SystemConfig(target_angles=(2.0, 0.0, -2.0))  # outside +-pi/2
    # A bool is not a count: True once passed as one antenna or seed 1.
    for name in ("n_tx", "n_irs", "n_ehd", "n_targets", "seed"):
        with pytest.raises(ValueError, match=f"{name} must be an int >= [01], got True"):
            SystemConfig(**{"n_targets": 1, "target_angles": (0.0,), name: True})


@pytest.mark.parametrize("name", [
    "p0", "delta", "dist_tx_irs", "dist_irs_ehd", "dist_tx_ehd", "ple_tx_irs",
    "ple_irs_ehd", "ple_tx_ehd", "pl_ref", "rician_k"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_system_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        SystemConfig(**{name: value})


@pytest.mark.parametrize("fields, match", [
    (dict(dist_tx_irs=1e-200), r"pl_ref \* dist_tx_irs\*\*\(-ple_tx_irs\) is inf"),
    (dict(dist_tx_ehd=1e300), r"pl_ref \* dist_tx_ehd\*\*\(-ple_tx_ehd\) is 0.0"),
    (dict(ple_irs_ehd=1e300), r"dist_irs_ehd\*\*\(-ple_irs_ehd\) is 0.0"),
    (dict(p0=1e300), "may overflow: their bound from p0 = 1e[+]300"),
    (dict(p0=1e160, pl_ref=1e3), "may overflow"),
    (dict(p0=1e-300, pl_ref=1e277, dist_irs_ehd=1e87), "may overflow"),
    (dict(delta=1e308), "delta = 1e[+]308 overflows the steering phases"),
])
def test_system_config_rejects_scales_out_of_range(fields, match):
    # Finite fields whose path loss overflowed once raised OverflowError in
    # sample_channels; an overflowing J or steering phase failed a run with
    # "beam must be finite", and an overflowing Gram product wrote NaN.
    with pytest.raises(ValueError, match=match):
        SystemConfig(**fields)


@pytest.mark.parametrize("dist, ple", [("dist_tx_irs", "ple_tx_irs"),
                                       ("dist_irs_ehd", "ple_irs_ehd"),
                                       ("dist_tx_ehd", "ple_tx_ehd")])
def test_system_config_rejects_a_subnormal_path_loss(dist, ple):
    # A subnormal path loss once reached the lc kernels as subnormal |y|,
    # where `objective.project` overflowed.  The least normal double itself
    # is accepted; the error names the link's fields.
    ones = dict(dist_tx_irs=1.0, dist_irs_ehd=1.0, dist_tx_ehd=1.0)
    SystemConfig(pl_ref=sys.float_info.min, **ones)
    with pytest.raises(ValueError, match=rf"pl_ref \* {dist}\*\*\(-{ple}\) is "
                       r"1e-311; it must be finite and at least 2\.22507\d*e-308"):
        SystemConfig(**{dist: 10.0, ple: 310.0})
    with pytest.raises(ValueError, match=rf"{dist}\*\*\(-{ple}\) is 3\.16227766e-314"):
        SystemConfig(**{dist: 1e125, ple: 2.5})


def test_system_config_power_properties():
    config = SystemConfig(n_tx=4, p0=100.0)
    assert config.per_antenna_power == pytest.approx(25.0)
    assert config.beam_amplitude == pytest.approx(5.0)


def test_parse_kv_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "# reference deployment\n"
        "n_tx = 8\n"
        "\n"
        "p0_dbm = 30   # total budget\n"
        "rho=0.5\n")
    mapping = parse_kv_file(path)
    assert mapping == {"n_tx": "8", "p0_dbm": "30", "rho": "0.5"}


def test_parse_kv_file_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("n_tx = 8\nn_tx = 9\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_kv_file(path)


def test_parse_kv_file_rejects_missing_equals(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n_tx 8\n")
    with pytest.raises(ValueError):
        parse_kv_file(path)


def test_config_from_mapping_converts_units():
    config = spec_config({
        "n_tx": "8",
        "p0_dbm": "30",
        "rician_k_db": "6",
        "target_angles_deg": "-45, 0, 45",
    })
    assert config.n_tx == 8
    assert config.p0 == pytest.approx(1000.0)
    assert config.rician_k == pytest.approx(db_to_linear(6.0))
    assert config.n_targets == 3
    np.testing.assert_allclose(config.target_angles,
                               [-math.pi / 4.0, 0.0, math.pi / 4.0])


def test_config_from_mapping_rejects_unknown_and_conflicting_keys():
    with pytest.raises(ValueError, match="'not_a_config_key'"):
        spec_config({"n_tx": "8", "not_a_config_key": "ignored"})
    # Angles are read in degrees only.
    with pytest.raises(ValueError, match="unknown spec key 'target_angles'"):
        spec_config({"target_angles": "0.5"})
    for db_key, linear in (("p0_dbm", "p0"), ("pl_ref_db", "pl_ref"),
                           ("rician_k_db", "rician_k")):
        with pytest.raises(ValueError, match=f"'{db_key}'.*'{linear}'"):
            spec_config({db_key: "30", linear: "10"})


@pytest.mark.parametrize("key, value", [
    ("seed", "1.5"), ("rho", "half"), ("p0_dbm", "30 dBm"), ("pl_ref_db", ""),
    ("rician_k_db", "x"), ("target_angles_deg", "-45, north"),
    ("target_angles_deg", "-45, 45,"),
])
def test_config_from_mapping_names_key_of_malformed_value(key, value):
    with pytest.raises(ValueError, match=f"spec key '{key}'"):
        spec_config({key: value})


def test_config_from_mapping_error_does_not_depend_on_hash_seed():
    # Keys are read in sorted order, so with two malformed values the error
    # names the same key under every string-hash seed.
    code = ("from iswpt.cli import experiment_from_mapping\n"
            "try:\n"
            "    experiment_from_mapping({'n_tx': 'four', 'n_irs': 'x'})\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    src = str(Path(iswpt.__file__).resolve().parents[1])
    for hash_seed in ("1", "2", "6"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.startswith("spec key 'n_irs'"), (hash_seed, out)


def test_config_from_mapping_linear_overrides_take_effect():
    config = spec_config({"p0": "250.0", "rho": "0.25", "seed": "11"})
    assert config.p0 == pytest.approx(250.0)
    assert config.rho == pytest.approx(0.25)
    assert config.seed == 11


def test_parse_kv_file_config_roundtrip(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("n_tx = 6\nn_irs = 12\np0_dbm = 20\n"
                    "target_angles_deg = -30, 30\n")
    config = spec_config(parse_kv_file(path))
    assert config.n_tx == 6
    assert config.n_irs == 12
    assert config.p0 == pytest.approx(100.0)
    assert config.n_targets == 2


def two_reduction_check_hermitian(mat, name, size):
    """check_hermitian as it was written with both reductions always taken:
    max|A| first, then max|A - A^H|."""
    if np.shape(mat) != (size, size):
        raise ValueError(f"{name} has shape {np.shape(mat)}, expected {(size, size)}")
    scale = float(np.abs(mat).max())
    if not np.isfinite(scale):
        raise ValueError(f"{name} must be finite")
    deviation = float(np.abs(mat - mat.conj().T).max())
    if deviation > 1e-12 * max(1.0, scale):
        raise ValueError(f"{name} is not Hermitian (deviation {deviation:.3e})")


def hermitian_check_outcome(check, mat):
    try:
        check(mat, "m", mat.shape[0])
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 12),
       kind=st.sampled_from(["exact", "near", "skewed", "inf", "nan"]),
       scale=st.sampled_from([1e-300, 1e-6, 1.0, 1e6, 1e300]),
       deviation=st.sampled_from([1e-16, 1e-13, 1e-12, 1e-11, 1e-3]))
def test_check_hermitian_decides_as_the_two_reduction_check(seed, n, kind, scale,
                                                            deviation):
    # The one-reduction exit for an exactly Hermitian matrix accepts and
    # rejects what the two-reduction check did, with the same message.
    rng = trial_stream(45, seed)
    a = scale * complex_normal(rng, (n, n))
    mat = 0.5 * (a + a.conj().T)   # exactly Hermitian
    i, j = rng.integers(0, n, 2)
    if kind == "near":
        mat[i, j] += deviation * max(1.0, scale)
    elif kind == "skewed":
        mat = mat + deviation * scale * complex_normal(rng, (n, n))
    elif kind in ("inf", "nan"):
        bad = np.inf if kind == "inf" else np.nan
        mat[i, j] = [bad, -bad, complex(0.0, bad), complex(bad, bad)][rng.integers(0, 4)]
    assert hermitian_check_outcome(check_hermitian, mat) \
        == hermitian_check_outcome(two_reduction_check_hermitian, mat)
    if kind == "exact":
        assert hermitian_check_outcome(check_hermitian, mat) is None


def test_check_hermitian_rejects_non_finite_symmetric_entries():
    # Matching non-finite entries in both triangles leave A - A^H non-finite,
    # never 0, so the one-reduction exit does not take them.
    for bad in (np.inf, -np.inf, np.nan, complex(np.inf, np.inf)):
        mat = np.eye(3, dtype=complex)
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(ValueError, match="m must be finite"):
            check_hermitian(mat, "m", 3)
        mat = np.eye(3, dtype=complex)
        mat[2, 2] = bad
        with pytest.raises(ValueError, match="m must be finite"):
            check_hermitian(mat, "m", 3)
