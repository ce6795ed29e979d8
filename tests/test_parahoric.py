import time

import pytest

from kmhecke import parahoric
from kmhecke.coeff_ring import LaurentPoly, param_ring_for
from kmhecke.errors import (
    FaceIsMinimal,
    FaceIsSpherical,
    NonSpherical,
    NotDivisible,
    OutsideTitsCone,
    TitsConeUndecided,
)
from kmhecke.hecke_bl import BLElement, mult_bl
from kmhecke.parahoric import (
    CosetLabel,
    coset_sum_of_label,
    decompose_in_coset_sums,
    double_coset,
    face_type,
    nonspherical_failure_stream,
    parahoric_product,
    poincare_polynomial,
    tree_orbit_size,
)
from kmhecke.root_system import build_realization, validate_gcm
from kmhecke.weyl import element_from_word, identity, inverse, multiply


class TestFaceType:
    def test_rank_one_subface_spherical(self, a2):
        assert face_type(a2, (0,)).spherical

    def test_affine_subface_not_spherical(self, chain3):
        face = face_type(chain3, (0, 1))
        assert not face.spherical and face.j_pos == (2,)

    def test_iwahori_face(self, a2):
        face = face_type(a2, ())
        assert face.spherical and face.j_pos == (0, 1)


class TestDoubleCoset:
    def test_iwahori_singleton(self, a2):
        face = face_type(a2, ())
        label, pairs = double_coset(face, (1, 1), element_from_word(a2, [0]))
        assert pairs == (((1, 1), element_from_word(a2, [0])),)
        assert label == CosetLabel((1, 1), (0,))

    def test_identity_coset_is_fixer(self, a1):
        face = face_type(a1, (0,))
        label, pairs = double_coset(face, (0,), identity(a1))
        assert {(p, w.word) for p, w in pairs} == {((0,), ()), ((0,), (0,))}
        assert label == CosetLabel((0,), ())

    def test_translation_coset_size_four(self, a1):
        face = face_type(a1, (0,))
        _, pairs = double_coset(face, (1,), identity(a1))
        assert len(pairs) == 4
        assert {(p, w.word) for p, w in pairs} == {
            ((1,), ()),
            ((-1,), ()),
            ((1,), (0,)),
            ((-1,), (0,)),
        }

    def test_nonspherical_rejected(self, chain3):
        with pytest.raises(NonSpherical):
            double_coset(face_type(chain3, (0, 1)), (0, 0, 0), identity(chain3))

    def test_outside_the_tits_cone_refused(self, aff):
        with pytest.raises(OutsideTitsCone):
            double_coset(face_type(aff, (0,)), (0, 0, -1), identity(aff))

    def test_undecided_point_refused(self, chain3):
        with pytest.raises(TitsConeUndecided):  # undecided within the default budget
            double_coset(face_type(chain3, (2,)), (-4, -4, -5), identity(chain3))


class TestParahoricProduct:
    def test_identity_law(self, a1):
        face = face_type(a1, (0,))
        e_label, _ = double_coset(face, (0,), identity(a1))
        a_label, _ = double_coset(face, (1,), identity(a1))
        assert parahoric_product(face, e_label, a_label) == {
            a_label: param_ring_for(a1).one()
        }
        assert parahoric_product(face, a_label, e_label) == {
            a_label: param_ring_for(a1).one()
        }

    def test_symmetrizer_squares(self, a1):
        face = face_type(a1, (0,))
        e_label, _ = double_coset(face, (0,), identity(a1))
        classes = param_ring_for(a1)
        assert parahoric_product(face, e_label, e_label) == {e_label: classes.one()}
        # raw check: X_WF^2 = P_F X_WF, i.e. (T_e + T_1)^2 = (1 + sigma^2)(T_e + T_1)
        x = coset_sum_of_label(face, e_label)
        assert mult_bl(x, x) == x.scale(poincare_polynomial(face))

    def test_iwahori_constants_are_plain_products(self, aff):
        face = face_type(aff, ())
        classes = param_ring_for(aff)
        l1 = CosetLabel((1, 0, 1), (0,))
        l2 = CosetLabel((0, 1, 1), (1,))
        constants = parahoric_product(face, l1, l2)
        x1 = coset_sum_of_label(face, l1)
        x2 = coset_sum_of_label(face, l2)
        prod = mult_bl(x1, x2)
        rebuilt = BLElement.zero(aff, classes)
        for label, c in constants.items():
            rebuilt = rebuilt + coset_sum_of_label(face, label).scale(c)
        assert rebuilt == prod

    def test_full_face_commutative_a1(self, a1):
        face = face_type(a1, (0,))
        labels = [double_coset(face, (h,), identity(a1))[0] for h in range(0, 4)]
        for l1 in labels:
            for l2 in labels:
                assert parahoric_product(face, l1, l2) == parahoric_product(face, l2, l1)

    def test_associative_on_labels(self, a1):
        face = face_type(a1, (0,))
        classes = param_ring_for(a1)
        labels = [double_coset(face, (h,), identity(a1))[0] for h in range(0, 3)]

        def combine(table, right_label):
            out = {}
            for lbl, c in table.items():
                for lbl2, c2 in parahoric_product(face, lbl, right_label).items():
                    out[lbl2] = out.get(lbl2, classes.zero()) + c * c2
            return {k: v for k, v in out.items() if not v.is_zero()}

        for x in labels:
            for y in labels:
                for z in labels:
                    left = combine(parahoric_product(face, x, y), z)
                    right = {}
                    for lbl, c in parahoric_product(face, y, z).items():
                        for lbl2, c2 in parahoric_product(face, x, lbl).items():
                            right[lbl2] = right.get(lbl2, classes.zero()) + c * c2
                    right = {k: v for k, v in right.items() if not v.is_zero()}
                    assert left == right


# points of Y+ on each datum; b2 is built here, the others are fixtures
POINTS = {
    "a1": [(0,), (1,), (2,), (-1,), (3,)],
    "a2": [(0, 0), (1, 0), (1, 1), (-1, 2), (2, 2)],
    "b2": [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)],
    "aff": [(0, 0, 0), (0, 0, 1), (1, 0, 1), (2, 1, 1)],
}


def _datum(request, name):
    if name == "b2":
        return build_realization(validate_gcm([[2, -2], [-1, 2]]))
    return request.getfixturevalue(name)


def _labels(face, points):
    datum = face.datum
    labels = []
    for lam in points:
        for word in [(), (0,), (datum.n - 1,)]:
            label, _ = double_coset(face, lam, element_from_word(datum, word))
            if label not in labels:
                labels.append(label)
    return labels


class TestDecomposition:
    @pytest.mark.parametrize(
        "name, j_zero",
        [
            ("a1", ()), ("a1", (0,)),
            ("a2", ()), ("a2", (1,)), ("a2", (0, 1)),
            ("b2", ()), ("b2", (0,)), ("b2", (0, 1)),
            ("aff", ()), ("aff", (0,)), ("aff", (1,)),
        ],
    )
    def test_combination_decomposes_back(self, request, name, j_zero):
        datum = _datum(request, name)
        face = face_type(datum, j_zero)
        classes = param_ring_for(datum)
        labels = _labels(face, POINTS[name])[:4]
        assert len(labels) == 4
        coeffs = [classes.const(k + 2) - classes.sigma(0, power=k + 1) for k in range(len(labels))]
        element = BLElement.zero(datum, classes)
        for label, c in zip(labels, coeffs):
            element = element + coset_sum_of_label(face, label).scale(c)
        assert decompose_in_coset_sums(face, element) == dict(zip(labels, coeffs))

    @staticmethod
    def _coset(a2):
        face = face_type(a2, (0, 1))
        label = double_coset(face, (1, 0), identity(a2))[0]
        x = coset_sum_of_label(face, label)
        keys = sorted(x.terms, key=lambda k: (k[0], k[1].word))
        assert len(keys) > 2
        return face, x, keys

    def test_one_term_of_a_coset_sum_refused(self, a2):
        face, x, keys = self._coset(a2)
        for lam, w in (keys[0], keys[-1]):
            one_term = BLElement.basis(a2, x.classes, lam, w, x.coeff(lam, w))
            with pytest.raises(NotDivisible):
                decompose_in_coset_sums(face, one_term)

    def test_one_coefficient_changed_refused(self, a2):
        face, x, keys = self._coset(a2)
        for key in (keys[0], keys[-1]):
            terms = x.terms
            terms[key] = terms[key] * 2
            with pytest.raises(NotDivisible):
                decompose_in_coset_sums(face, BLElement(a2, x.classes, terms))

    def test_one_term_removed_refused(self, a2):
        face, x, keys = self._coset(a2)
        for key in (keys[0], keys[-1]):
            terms = x.terms
            del terms[key]
            with pytest.raises(NotDivisible):
                decompose_in_coset_sums(face, BLElement(a2, x.classes, terms))

    def test_constant_not_divisible_by_the_poincare_polynomial_refused(self, a1, monkeypatch):
        face = face_type(a1, (0,))
        labels = _labels(face, [(0,), (1,)])
        assert parahoric_product(face, labels[0], labels[1])
        real = parahoric.poincare_polynomial
        monkeypatch.setattr(parahoric, "poincare_polynomial", lambda f: real(f) * 2)
        for d1 in labels:
            for d2 in labels:
                with pytest.raises(NotDivisible):
                    parahoric_product(face, d1, d2)


class TestCosetSumInvariance:
    def test_t_generator_action_stays_in_span(self, a1):
        """T_j X_D decomposes over coset sums (bi-invariance of the model)."""
        face = face_type(a1, (0,))
        classes = param_ring_for(a1)
        t1 = BLElement.h_word(a1, classes, [0]).scale(classes.sigma(0))
        for h in range(0, 3):
            label, _ = double_coset(face, (h,), identity(a1))
            x = coset_sum_of_label(face, label)
            left = decompose_in_coset_sums(face, mult_bl(t1, x))
            right = decompose_in_coset_sums(face, mult_bl(x, t1))
            assert left and right
        # the symmetrizer itself is a sigma^2 eigenvector
        e_label, _ = double_coset(face, (0,), identity(a1))
        xe = coset_sum_of_label(face, e_label)
        assert mult_bl(t1, xe) == xe.scale(classes.sigma(0, power=2))


class TestTreeCount:
    def test_empty_product(self):
        assert tree_orbit_size(1, 2, 7) == 1

    def test_first_factor_is_qprime(self):
        assert tree_orbit_size(2, 5, 7) == 7

    def test_alternating_pattern(self):
        poly = tree_orbit_size(4)
        assert poly == LaurentPoly.monomial((1, 2))  # q' q q'
        assert tree_orbit_size(4, 3, 2) == 2 * 3 * 2

    def test_one_parameter_refused(self):
        for l in (1, 3):
            with pytest.raises(ValueError):
                tree_orbit_size(l, q=2)
            with pytest.raises(ValueError):
                tree_orbit_size(l, qprime=2)


class TestObstruction:
    def test_chain3_stream(self, chain3):
        face = face_type(chain3, (0, 1))
        t0 = time.time()
        stream = nonspherical_failure_stream(face, 25)
        assert time.time() - t0 < 5.0
        assert len(stream.elements) == 25
        points = {e.point for e in stream.elements}
        assert len(points) == 25
        u = stream.face_interior_point
        assert u == (-1, -1, 0)
        assert stream.witness.word == (2,)
        for el in stream.elements:
            x = element_from_word(chain3, el.fixer_word)
            assert x.apply(u) == u
            assert inverse(multiply(x, stream.witness)).apply(el.point) == u

    def test_single_element(self, chain3):
        face = face_type(chain3, (0, 1))
        stream = nonspherical_failure_stream(face, 1)
        assert stream.elements[0].point == stream.witness.apply(stream.face_interior_point)
        assert stream.elements[0].fixer_word == ()

    def test_spherical_faces_error(self, chain3):
        for j_zero in [(), (0,), (1,), (2,), (0, 2), (1, 2)]:
            face = face_type(chain3, j_zero)
            assert face.spherical
            with pytest.raises(FaceIsSpherical):
                nonspherical_failure_stream(face, 3)
        with pytest.raises(FaceIsMinimal):
            nonspherical_failure_stream(face_type(chain3, (0, 1, 2)), 3)
