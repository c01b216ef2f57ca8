"""Kinematics, Fermi factor and the recoil shift against independent oracles."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribeta.errors import ConfigurationError, ValidationError
from tribeta.franck_condon import default_model, rotational_shift_ev
from tribeta.physics import (CONSTANTS, CONSTANTS_ENV_VAR, Constants,
                             fermi_factor, load_constants,
                             momentum_from_kinetic)

mp.mp.dps = 30


class TestConstants:
    def test_invariants(self):
        assert 510998.0 <= CONSTANTS.electron_mass_ev <= 511000.0
        for ratio in (CONSTANTS.triton_electron_ratio,
                      CONSTANTS.helion_electron_ratio,
                      CONSTANTS.proton_electron_ratio):
            assert ratio > 1000.0

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CONSTANTS.electron_mass_ev = 1.0

    def test_matches_scipy_codata(self):
        # pinned 2018 values vs whatever CODATA release scipy ships
        from scipy import constants as sc
        me_ev = sc.m_e * sc.c**2 / sc.e
        assert abs(CONSTANTS.electron_mass_ev - me_ev) / me_ev < 1e-8
        assert abs(CONSTANTS.fine_structure - sc.fine_structure) \
            / sc.fine_structure < 1e-8
        triton = sc.physical_constants["triton-electron mass ratio"][0]
        assert abs(CONSTANTS.triton_electron_ratio - triton) / triton < 1e-8

    def test_reduced_mass(self):
        mt, mh = CONSTANTS.triton_electron_ratio, CONSTANTS.helion_electron_ratio
        assert CONSTANTS.reduced_t_he3 == pytest.approx(mt * mh / (mt + mh))
        assert CONSTANTS.reduced_t_he3 < mt / 2.0

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            Constants(electron_mass_ev=1.0)
        with pytest.raises(ValidationError):
            Constants(proton_electron_ratio=10.0)

    def test_override_file(self, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"version": "test", "electron_mass_ev": 510999.0}))
        c = load_constants(str(path))
        assert c.version == "test"
        assert c.electron_mass_ev == 510999.0
        path.write_text(json.dumps({"no_such_field": 1.0}))
        with pytest.raises(ConfigurationError):
            load_constants(str(path))

    def test_dump_contains_derived(self):
        doc = json.loads(CONSTANTS.dump_json())
        assert doc["version"] == CONSTANTS.version
        assert doc["derived"]["reduced_t_he3"] == pytest.approx(2748.2, abs=0.1)


class TestKinematics:
    def test_rest(self):
        k = momentum_from_kinetic(0.0)
        assert k.momentum_ev == 0.0
        assert k.recoil_q_au == 0.0

    def test_algebraic_identity_at_mc2(self):
        me = CONSTANTS.electron_mass_ev
        k = momentum_from_kinetic(me)
        assert k.momentum_ev == pytest.approx(math.sqrt(3.0) * me, rel=1e-14)

    def test_endpoint_recoil_momentum(self):
        # q ~ 18 at the endpoint; exact digits from a 30-digit oracle
        k = momentum_from_kinetic(18575.0)
        me = mp.mpf("510998.95000")
        eps = mp.mpf(18575)
        q_mp = mp.sqrt(eps * (eps + 2 * me)) / 2 / (me * mp.mpf("7.2973525693e-3"))
        assert 18.0 < k.recoil_q_au < 19.0
        assert abs(k.recoil_q_au - float(q_mp)) < 1e-12 * float(q_mp)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValidationError):
            momentum_from_kinetic(-1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e6))
    def test_round_trip(self, eps):
        # eps = sqrt(p^2 + m^2) - m, written without cancellation
        p, me = momentum_from_kinetic(eps).momentum_ev, CONSTANTS.electron_mass_ev
        back = p * p / (math.hypot(p, me) + me)
        assert abs(back - eps) <= 1e-12 * eps


class TestFermiFactor:
    def test_neutral_limit(self, tmp_path):
        # eta -> 0 (vanishing coupling): F -> 1.  The coupling comes from a
        # TRIBETA_CONSTANTS override, read once at import in a fresh process.
        weak = tmp_path / "weak.json"
        weak.write_text(json.dumps({"fine_structure": 1e-12}))
        env = dict(os.environ, **{CONSTANTS_ENV_VAR: str(weak)})
        result = subprocess.run(
            [sys.executable, "-c", "from tribeta.physics import fermi_factor; "
             "print(repr(fermi_factor(1e5, 1)))"],
            env=env, capture_output=True, text=True, check=True)
        f = float(result.stdout)
        assert 1.0 < f < 1.0 + 1e-9

    def test_eta_one_closed_form(self):
        # choose p so that eta = Z alpha E / p = 1
        z, alpha, me = 2, CONSTANTS.fine_structure, CONSTANTS.electron_mass_ev
        p = z * alpha * me / math.sqrt(1.0 - (z * alpha) ** 2)
        expected = 2.0 * math.pi / (1.0 - math.exp(-2.0 * math.pi))
        assert fermi_factor(p, z) == pytest.approx(expected, rel=1e-12)

    def test_high_precision_oracle(self):
        # same closed form evaluated at 30 digits
        k = momentum_from_kinetic(18575.0)
        me = mp.mpf("510998.95000")
        alpha = mp.mpf("7.2973525693e-3")
        pc = mp.mpf(k.momentum_ev)
        eta = 2 * alpha * mp.sqrt(pc**2 + me**2) / pc
        x = 2 * mp.pi * eta
        oracle = float(x / (1 - mp.e**(-x)))
        assert fermi_factor(k.momentum_ev, 2) == pytest.approx(oracle, rel=1e-12)

    def test_monotone_decreasing_in_momentum(self):
        p = np.geomspace(1e3, 1e6, 200)
        f = fermi_factor(p, 2)
        assert np.all(np.diff(f) < 0.0)
        assert np.all(f > 1.0)

    def test_rest_rejected(self):
        with pytest.raises(ValidationError):
            fermi_factor(0.0, 2)


class TestRecoil:
    """The rotational recoil q^2/2M (`rotational_shift_ev`) at q = p/2."""

    @staticmethod
    def shift(eps):
        q = momentum_from_kinetic(eps).recoil_q_au
        return rotational_shift_ev(default_model(), q)

    def test_zero_energy(self):
        assert self.shift(0.0) == 0.0

    def test_rotational_shift_closed_form(self):
        # p^2 / (8 M m_e), M the reduced T-3He mass; CODATA's hartree is not
        # exactly m_e c^2 alpha^2 (gap ~6e-12)
        me = CONSTANTS.electron_mass_ev
        for eps in (1000.0, 18575.0):
            closed = eps * (eps + 2.0 * me) / (8.0 * CONSTANTS.reduced_t_he3 * me)
            assert self.shift(eps) == pytest.approx(closed, rel=1e-10)

    def test_rotational_part_at_endpoint(self):
        assert self.shift(18575.0) == pytest.approx(1.72, abs=0.02)
