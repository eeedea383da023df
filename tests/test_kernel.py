import numpy as np
import pytest

from sqgreen import (
    ContractError,
    DomainError,
    NonConvergenceError,
    PiecewisePotential,
    SquareBarrier,
    boundary_limit,
    branch_sqrt,
    find_kernel_poles,
    formal_green,
    kernel_grid,
    kernel_pole_residual,
    resolvent_kernel,
)

from conftest import close, random_instances


class TestResolventKernel:
    def test_zero_at_origin_exactly(self, barrier):
        for e in (1.5 + 0.4j, 2.0 - 1.0j):
            for s in (0.3, 1.5, 4.0):
                assert resolvent_kernel(barrier, e, 0.0, s).value == 0.0

    def test_symmetry_is_exact(self, barrier, rng):
        for _ in range(10):
            e = complex(rng.uniform(0.2, 6.0), rng.choice([-1, 1]) * rng.uniform(0.1, 1.5))
            r, s = rng.uniform(0.05, 4.0, size=2)
            assert (
                resolvent_kernel(barrier, e, r, s).value
                == resolvent_kernel(barrier, e, s, r).value
            )

    @pytest.mark.parametrize("e", [1.0 + 0.3j, 1.0 - 0.3j, 2.5 + 1.0j, 2.5 - 1.0j])
    def test_schwarz_reflection(self, barrier, e):
        for r, s in ((0.4, 1.7), (2.6, 3.3), (1.2, 0.8)):
            direct = resolvent_kernel(barrier, e.conjugate(), r, s).value
            mirrored = resolvent_kernel(barrier, e, r, s).value.conjugate()
            assert abs(direct - mirrored) <= 1e-10 * abs(mirrored)

    def test_real_energy_redirected(self, barrier):
        with pytest.raises(ContractError):
            resolvent_kernel(barrier, 1.0 + 0j, 0.5, 1.5)

    def test_engine_path_matches_closed_form(self, rng):
        for p, e in random_instances(rng, 8):
            pw = PiecewisePotential.from_square_barrier(p)
            energy = complex(e, rng.choice([-1, 1]) * 0.7)
            r, s = rng.uniform(0.05, p.b + 2.0, size=2)
            g_closed = resolvent_kernel(p, energy, r, s).value
            g_engine = resolvent_kernel(pw, energy, r, s).value
            assert abs(g_closed - g_engine) <= 1e-12 * (1.0 + abs(g_closed))

    def test_offdiagonal_decay_above_axis(self, barrier):
        e = 2.0 + 1.2j
        im_k = branch_sqrt(e).imag
        s = 0.8
        r0 = barrier.b + 1.0
        base = abs(resolvent_kernel(barrier, e, r0, s).value)
        for dr in (1.0, 2.5, 4.0):
            val = abs(resolvent_kernel(barrier, e, r0 + dr, s).value)
            assert val <= 1.0000001 * base * np.exp(-im_k * dr)


class TestKernelGrid:
    RS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.75]
    SS = [0.25, 1.0, 2.0, 3.5]

    def test_entries_equal_scalar_resolvent_kernel(self, barrier):
        stair = PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -1.0, 0.0))
        for p in (barrier, stair):
            for e in (1.5 + 0.2j, 2.0 - 0.7j):
                grid = kernel_grid(p, e, self.RS, self.SS)
                assert grid.shape == (len(self.RS), len(self.SS))
                for i, r in enumerate(self.RS):
                    for j, s in enumerate(self.SS):
                        assert grid[i, j] == resolvent_kernel(p, e, r, s).value

    @pytest.mark.parametrize("direction", ["plus", "minus"])
    def test_entries_equal_scalar_formal_green(self, barrier, direction):
        grid = kernel_grid(barrier, 1.5, self.RS, self.SS, direction)
        for i, r in enumerate(self.RS):
            for j, s in enumerate(self.SS):
                assert grid[i, j] == formal_green(barrier, 1.5, r, s, direction).value

    def test_empty_axis(self, barrier):
        assert kernel_grid(barrier, 1.0 + 1.0j, [], self.SS).shape == (0, len(self.SS))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_radius_rejected(self, barrier, bad):
        with pytest.raises(DomainError):
            kernel_grid(barrier, 1.0 + 1.0j, [0.5, bad], self.SS)
        with pytest.raises(DomainError):
            kernel_grid(barrier, 1.5, self.RS, [bad], "plus")
        with pytest.raises(DomainError):
            resolvent_kernel(barrier, 1.0 + 1.0j, 0.5, bad)

    def test_energy_contracts(self, barrier):
        with pytest.raises(ContractError):
            kernel_grid(barrier, 1.5, self.RS, self.SS)
        with pytest.raises(DomainError):
            kernel_grid(barrier, -1.5, self.RS, self.SS, "plus")
        with pytest.raises(ContractError):
            kernel_grid(barrier, 1.5, self.RS, self.SS, "up")


class TestKernelSample:
    def test_provenance_validation(self):
        from sqgreen import KernelSample

        with pytest.raises(DomainError):
            KernelSample(1.0, 2.0, 1 + 1j, 0j, "mystery")
        with pytest.raises(DomainError):
            KernelSample(1.0, 2.0, 1.0 + 0j, 0j, "resolvent_kernel")
        with pytest.raises(DomainError):
            KernelSample(1.0, 2.0, 1 + 1j, 0j, "formal_plus")
        with pytest.raises(DomainError):
            KernelSample(-1.0, 2.0, 1 + 1j, 0j, "resolvent_kernel")


class TestFormalGreen:
    def test_free_particle_closed_form(self, free):
        got = formal_green(free, 1.0, 1.0, 2.0, "plus").value
        want = -np.sin(1.0) * np.exp(2j)
        assert close(got, want, rtol=1e-12)
        assert close(got, 0.35017548837401463 - 0.7651474012342926j, rtol=1e-10)

    def test_minus_is_conjugate_of_plus_free(self, free):
        for r, s in ((0.5, 2.5), (3.0, 1.0)):
            plus = formal_green(free, 1.7, r, s, "plus").value
            minus = formal_green(free, 1.7, r, s, "minus").value
            assert close(minus, plus.conjugate(), rtol=1e-12)

    def test_zero_at_origin(self, barrier):
        assert formal_green(barrier, 1.0, 0.0, 2.0, "plus").value == 0.0

    def test_tunnelling_energies_allowed(self, barrier):
        # 0 < E < v0: interior momentum is +i sqrt(v0 - E), kernel stays finite
        g = formal_green(barrier, 2.0, 0.7, 1.6, "plus").value
        assert np.isfinite(g)

    def test_nonpositive_energy_rejected(self, barrier):
        with pytest.raises(DomainError):
            formal_green(barrier, 0.0, 0.5, 1.5, "plus")
        with pytest.raises(DomainError):
            formal_green(barrier, -1.0, 0.5, 1.5, "plus")

    def test_provenance(self, barrier):
        assert formal_green(barrier, 1.0, 0.5, 1.5, "plus").provenance == "formal_plus"
        assert formal_green(barrier, 1.0, 0.5, 1.5, "minus").provenance == "formal_minus"


class TestBoundaryLimit:
    def test_matches_formal_kernels(self, rng):
        for p, e in random_instances(rng, 10):
            r, s = rng.uniform(0.05, p.b + 2.0, size=2)
            for direction in ("plus", "minus"):
                study = boundary_limit(p, e, r, s, direction)
                formal = formal_green(p, e, r, s, direction).value
                assert abs(study.extrapolated - formal) <= 1e-8

    def test_schwarz_pairing_of_limits(self, barrier):
        r, s = 0.7, 2.4
        plus = boundary_limit(barrier, 1.3, r, s, "plus").extrapolated
        minus = boundary_limit(barrier, 1.3, r, s, "minus").extrapolated
        assert abs(plus - minus.conjugate()) <= 1e-8

    def test_mu_sequence_invariants(self, barrier):
        study = boundary_limit(barrier, 1.0, 0.7, 1.8, "plus")
        mus = np.array(study.mu_sequence)
        assert np.all(np.diff(mus) < 0)
        assert mus[-1] < 1e-8
        assert study.converged
        assert study.halvings == len(study.samples)

    def test_first_order_approach(self, barrier):
        # the gap to the limit halves with mu once mu is small
        study = boundary_limit(barrier, 1.0, 0.7, 1.8, "plus", mu0=0.05)
        diffs = np.abs(np.diff(np.array(study.samples)))
        ratios = diffs[8:16] / diffs[7:15]
        assert np.all(np.abs(ratios - 0.5) < 0.15)

    def test_richardson_is_closer_than_final_sample(self, barrier):
        study = boundary_limit(barrier, 1.0, 0.7, 1.8, "plus")
        formal = formal_green(barrier, 1.0, 0.7, 1.8, "plus").value
        assert abs(study.richardson - formal) <= abs(study.extrapolated - formal) + 1e-12

    def test_mu0_contract(self, barrier):
        with pytest.raises(DomainError):
            boundary_limit(barrier, 1.0, 0.5, 1.5, "plus", mu0=0.5)
        with pytest.raises(DomainError):
            boundary_limit(barrier, -1.0, 0.5, 1.5, "plus")

    def test_as_sample_provenance(self, barrier):
        study = boundary_limit(barrier, 1.0, 0.7, 1.8, "minus")
        sample = study.as_sample()
        assert sample.provenance == "boundary_limit_minus"
        assert sample.value == study.extrapolated
        assert sample.e == 1.0 + 0j


class TestPoleScan:
    def test_free_particle_has_no_poles(self, free):
        roots = find_kernel_poles(free, (-5.0, 5.0, -5.0, 5.0), seed_density=0.5)
        assert roots == []

    def test_barrier_resonance(self, barrier):
        roots = find_kernel_poles(barrier, (3.0, 6.0, -1.0, -0.01), seed_density=0.25)
        assert len(roots) == 1
        assert abs(roots[0] - (4.202900 - 0.255644j)) < 1e-4
        for z in roots:
            assert kernel_pole_residual(barrier, z) < 1e-10

    def test_well_bound_state(self):
        well = SquareBarrier(-4.0, 1.0, 2.0)
        roots = find_kernel_poles(well, (-3.9, -0.05, -0.5, 0.5), seed_density=0.25)
        assert any(abs(z - (-1.72912722)) < 1e-4 for z in roots)
        for z in roots:
            assert kernel_pole_residual(well, z) < 1e-10

    def test_roots_deduplicated_and_sorted(self, barrier):
        roots = find_kernel_poles(barrier, (3.0, 6.0, -1.0, -0.01), seed_density=0.25)
        for z1, z2 in zip(roots, roots[1:]):
            assert abs(z1 - z2) >= 1e-6
            assert (z1.real, z1.imag) <= (z2.real, z2.imag)

    def test_deterministic(self, barrier):
        box = (3.0, 6.0, -1.0, -0.01)
        assert find_kernel_poles(barrier, box) == find_kernel_poles(barrier, box)

    def test_degenerate_box_rejected(self, barrier):
        with pytest.raises(DomainError):
            find_kernel_poles(barrier, (1.0, 1.0, -1.0, 1.0))
