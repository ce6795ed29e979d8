"""An independent oracle for `mult_bl` on A1.

With the default realization of A1, Y is the coroot lattice Z alpha^v, so
Y x| W is the affine Weyl group W(A~1): the infinite dihedral group on
s1 (the finite reflection) and s0.  Its Iwahori-Hecke algebra needs only
reduced words, which alternate, and the quadratic relation
H_s^2 = (q_s - q_s^{-1}) H_s + 1 (Iwahori-Matsumoto).  The map sends
H_1 to H_{s1}, Z^{alpha^v} to the normalized T_{s0 s1} = H_{s0} H_{s1},
sigma to the parameter of s1 and sigma' to that of s0; it is an
isomorphism of algebras, so it must carry `mult_bl(x, y)` to the product
of the images.  The model uses neither `hecke_bl`'s kernel nor packed
coefficients: coefficients are the tuple-keyed maps of
`test_packed_form`.
"""

from hypothesis import given, settings, strategies as st

from kmhecke.coeff_ring import LaurentPoly, param_ring_for
from kmhecke.hecke_bl import BLElement, mult_bl
from kmhecke.weyl import element_from_word

from test_packed_form import ref_add, ref_mul

S1, S0 = 1, 0  # the letters of W(A~1)


class IMAlgebra:
    """The Hecke algebra of W(A~1) on alternating words, coefficients {exponents: int}.

    `param[s]` is the class variable q_s of letter s among `nvars` variables.
    """

    def __init__(self, nvars, param):
        self.nvars, self.param = nvars, param

    def const(self, c):
        return {(0,) * self.nvars: c}

    def q_minus_inverse(self, s):
        up = tuple(1 if k == self.param[s] else 0 for k in range(self.nvars))
        down = tuple(-x for x in up)
        return {up: 1, down: -1}

    def add(self, x, y):
        out = dict(x)
        for w, c in y.items():
            out[w] = ref_add(out.get(w, {}), c)
        return {w: c for w, c in out.items() if c}

    def scale(self, x, c):
        return {w: p for w, cw in x.items() if (p := ref_mul(cw, c))}

    def h_letter_times(self, s, x):
        """H_s * x, by the quadratic relation when the word starts with s."""
        out = {}
        for w, c in x.items():
            if w and w[0] == s:
                part = {w: ref_mul(c, self.q_minus_inverse(s)), w[1:]: c}
            else:
                part = {(s,) + w: c}
            out = self.add(out, part)
        return out

    def mul(self, x, y):
        out = {}
        for w, c in x.items():
            part = y
            for s in reversed(w):
                part = self.h_letter_times(s, part)
            out = self.add(out, self.scale(part, c))
        return out

    def h(self, word):
        return {tuple(word): self.const(1)}

    def inverse_h(self, s):
        """H_s^{-1} = H_s - (q_s - q_s^{-1})."""
        return self.add(self.h((s,)), {(): ref_mul(self.q_minus_inverse(s), self.const(-1))})

    def translation(self, k):
        """The image of Z^{k alpha^v}: (H_{s0} H_{s1})^k."""
        step = self.h((S0, S1)) if k >= 0 else self.mul(self.inverse_h(S1), self.inverse_h(S0))
        out = self.h(())
        for _ in range(abs(k)):
            out = self.mul(out, step)
        return out


def image(alg, el: BLElement, spec):
    """The image of an A1 element; `spec` maps a coefficient's exponents into `alg`'s ring."""
    out = {}
    for (lam, w), poly in el.terms.items():
        (k,) = lam
        coeff = {}
        for e, c in poly.coeffs.items():
            coeff = ref_add(coeff, {spec(e): c})
        basis = alg.mul(alg.translation(k), alg.h((S1,) * len(w.word)))
        out = alg.add(out, alg.scale(basis, coeff))
    return out


def _elements(datum):
    classes = param_ring_for(datum)
    n = classes.nclasses
    coeff = st.dictionaries(
        st.tuples(*(st.integers(-2, 2) for _ in range(n))), st.integers(-3, 3), max_size=2
    )
    term = st.tuples(st.integers(-3, 3), st.sampled_from([(), (0,)]), coeff)

    def build(terms):
        out = BLElement.zero(datum, classes)
        for k, word, c in terms:
            w = element_from_word(datum, word)
            out = out + BLElement.basis(datum, classes, (k,), w, LaurentPoly(n, c))
        return out

    return st.lists(term, min_size=1, max_size=3).map(build)


# sigma is class 0 and sigma' class 1 on A1; specialized, both are one variable
TWO_PARAMETERS = (IMAlgebra(2, {S1: 0, S0: 1}), lambda e: e)
ONE_PARAMETER = (IMAlgebra(1, {S1: 0, S0: 0}), lambda e: (e[0] + e[1],))


def test_a1_has_two_parameter_classes(a1):
    assert param_ring_for(a1).nclasses == 2 and a1.coroots == ((1,),)


def test_generators_map_to_the_model(a1):
    """H_1 Z^{alpha^v} expands over a window; the model gives the same element."""
    classes = param_ring_for(a1)
    alg, spec = TWO_PARAMETERS
    h = BLElement.h_word(a1, classes, [0])
    for k in range(-3, 4):
        z = BLElement.z_monomial(a1, classes, (k,))
        assert image(alg, mult_bl(h, z), spec) == alg.mul(alg.h((S1,)), alg.translation(k))
        assert image(alg, mult_bl(z, h), spec) == alg.mul(alg.translation(k), alg.h((S1,)))


def test_mult_bl_matches_the_iwahori_matsumoto_model(a1):
    @given(_elements(a1), _elements(a1), st.sampled_from([TWO_PARAMETERS, ONE_PARAMETER]))
    @settings(max_examples=60, deadline=None)
    def check(x, y, model):
        alg, spec = model
        want = alg.mul(image(alg, x, spec), image(alg, y, spec))
        assert image(alg, mult_bl(x, y), spec) == want

    check()
