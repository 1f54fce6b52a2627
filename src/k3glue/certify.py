"""End-to-end certification of the glued rank-22 lattice isometry.

Builds the rank-2 piece and the twisted conductor-50 trace-form piece,
glues them into an even unimodular lattice of signature (3, 19)
carrying an isometry with characteristic polynomial
(X^2 - 3X + 1) * Phi_50(X), and re-derives every claimed invariant.
The outcome is a CertificationReport: a fixed, ordered list of named
checks with exact witnesses, rendered byte-identically on every run.

Checks pull their data from the narrowest source that carries the
claim (the emitted ambient lattice, the gluing basis, the raw glue
map, ...) so a corrupted object fails its own checks and no others.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arith import is_perfect_square
from .cyclotomic import (
    CycloField,
    build_trace_form_lattice,
    cyclotomic_poly,
    dpsi_quotient,
    norm_real_subfield,
    real_embedding_signs,
    real_embedding_values,
    real_subfield,
    twist_element_parts,
)
from .gluing import extend_isometry, find_glue_map, glue, verify_glue_map
from .lattices import (
    Lattice,
    check_isometry,
    glue_group,
    induced_glue_action,
    is_primitive,
    orthogonal_complement,
    restrict_isometry,
    sylow_decomposition,
)
from .matrices import IntMatrix, block_diagonal, charpoly, det, exact_quotient, join_columns
from .polynomials import IntPoly

#: X^2 - 3X + 1, the trace-3 degree-2 Salem factor of the target polynomial.
SALEM_FACTOR = IntPoly([1, -3, 1])

L1_GRAM = ((6002, 3001), (3001, -6002))
L1_ISOMETRY = ((1, 1), (1, 2))
#: dual vector generating the 5-part of the rank-2 lattice's glue group
L1_FIVE_GENERATOR = (Fraction(2, 5), Fraction(1, 5))

#: first Gram row of the twisted lattice; the whole matrix is Toeplitz
TWISTED_GRAM_ROW = (
    -10, 8, -6, 3, -1, -2, 3, -3, 3, -3, 3, -3, 3, -3, 3, -3, 3, -3, 3, -3,
)

#: numerators over 5 of the dual vector generating the twisted lattice's 5-part
TWISTED_FIVE_GENERATOR_NUMERATORS = (
    2, 3, 2, 3, 2, 1, -1, 1, -1, 1, 1, -1, 1, -1, 1, -3, -2, -3, -2, -3,
)

#: reference five-significant-digit prints of a / Psi_50'(y) at the ten real
#: embeddings, labels ascending; the certification requires agreement within
#: one unit in the last printed digit of each entry
EMBEDDING_REFERENCE = (
    "-0.11372", "-0.067094", "0.028027", "-0.026605", "-0.11141",
    "-0.10565", "-0.029497", "-0.5185", "-1.5061", "-2.5493",
)
EMBEDDING_DIGITS = 5

GLUE_ORDER = 5 * 3001 * 3001  # 45030005


@dataclass(frozen=True)
class CheckResult:
    claim: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class CertificationReport:
    """Ordered check outcomes; the verdict is the conjunction."""

    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return tuple(c for c in self.checks if not c.passed)

    def claims(self):
        return tuple(c.claim for c in self.checks)

    def to_machine(self):
        """Key-value document, one check per line, byte-deterministic."""
        lines = [
            "format k3glue.certification.v1",
            f"verdict {'pass' if self.passed else 'fail'}",
            f"checks {len(self.checks)}",
        ]
        for c in self.checks:
            lines.append(f"check {c.claim} {'pass' if c.passed else 'fail'} {c.witness}")
        return "\n".join(lines) + "\n"

    def to_text(self):
        """Human-readable table."""
        width = max(len(c.claim) for c in self.checks)
        lines = []
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            lines.append(f"{mark:<4} {c.claim:<{width}}  {c.witness}")
        bad = len(self.failures())
        lines.append("")
        lines.append(
            f"{len(self.checks)} checks, {bad} failed: "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines) + "\n"


@dataclass
class K3Assembly:
    """Every object the certification inspects, in one mutable bundle.

    Mutability is for negative testing: corrupt one field, re-run
    certify(), and watch exactly the checks that own the claim fail.
    """

    field: CycloField
    parts: dict
    lattice1: Lattice
    isometry1: object
    lattice2: Lattice
    isometry2: object
    glue_map: object
    result: object
    isometry: object


def build_l1():
    """The rank-2 piece: Gram 3001*[[2,1],[1,-2]], isometry [[1,1],[1,2]]."""
    lattice = Lattice(IntMatrix([list(r) for r in L1_GRAM]))
    isometry = check_isometry(lattice, IntMatrix([list(r) for r in L1_ISOMETRY]))
    return lattice, isometry


def build_l2():
    """The rank-20 piece: the conductor-50 trace form twisted by a."""
    field = CycloField(50)
    return build_trace_form_lattice(field, twist_element_parts(field)["a"])


def assemble_k3():
    """Run the full construction and return all intermediate objects."""
    field = CycloField(50)
    parts = twist_element_parts(field)
    l1, t1 = build_l1()
    l2, t2 = build_trace_form_lattice(field, parts["a"])
    gmap = find_glue_map(
        glue_group(l1), glue_group(l2),
        induced_glue_action(t1), induced_glue_action(t2),
    )
    result = glue(l1, l2, gmap)
    iso = extend_isometry(result, t1, t2)
    return K3Assembly(field, parts, l1, t1, l2, t2, gmap, result, iso)


def _mat(m):
    rows = ",".join(
        "[" + ",".join(str(m[i, j]) for j in range(m.cols)) + "]" for i in range(m.rows)
    )
    return "[" + rows + "]"


def _vec(v):
    return "(" + ",".join(str(x) for x in v) + ")"


def _sylow_shape(lattice):
    comps = sylow_decomposition(glue_group(lattice))
    return {c.prime: c.orders for c in comps}


def _shape_str(shape):
    return ";".join(f"{p}:{_vec(shape[p])}" for p in sorted(shape))


def _fp_charpoly_of_product(p):
    """Ascending coefficients of (X+121)(X-124) reduced mod p."""
    prod = IntPoly([121, 1]) * IntPoly([-124, 1])
    return tuple(c % p for c in prod.coeffs)


def _print_tolerance(text):
    """One unit in the last printed digit of a plain decimal string."""
    if "." not in text:
        return Fraction(1)
    return Fraction(1, 10 ** len(text.split(".")[1]))


def certify(assembly=None):
    """Evaluate every certification check against the assembly.

    Failures never raise; a check whose probe crashes is recorded as
    failed with the error text as its witness, so the report is total.
    """
    if assembly is None:
        assembly = assemble_k3()
    checks = []
    shared = {}

    def run(claim, probe):
        try:
            ok, witness = probe()
        except Exception as exc:  # a crashed probe is a failed check
            ok, witness = False, f"error={type(exc).__name__}: {exc}"
        checks.append(CheckResult(claim, bool(ok), str(witness)))

    def once(key, maker):
        # memo per certify() call; a failed maker is retried (and fails
        # again) in each dependent check, so one crash cannot hide another
        if key not in shared:
            shared[key] = maker()
        return shared[key]

    l1, t1 = assembly.lattice1, assembly.isometry1
    l2, t2 = assembly.lattice2, assembly.isometry2
    phi50 = cyclotomic_poly(50)

    # --- rank-2 piece ---------------------------------------------------
    run("L1.gram", lambda: (
        l1.gram == IntMatrix([list(r) for r in L1_GRAM]),
        f"gram={_mat(l1.gram)} scale=3001*[[2,1],[1,-2]]",
    ))
    run("L1.even", lambda: (
        l1.is_even(), f"diagonal={_vec(l1.gram[i, i] for i in range(l1.rank))}",
    ))
    run("L1.signature", lambda: (
        l1.signature() == (1, 1), f"signature={l1.signature()}",
    ))
    run("L1.det", lambda: (
        l1.det == -GLUE_ORDER, f"det={l1.det} |det|=5*3001^2",
    ))
    run("L1.isometry.preserves_form", lambda: (
        t1.matrix.transpose() @ l1.gram @ t1.matrix == l1.gram,
        f"matrix={_mat(t1.matrix)}",
    ))
    run("L1.isometry.charpoly", lambda: (
        t1.charpoly() == SALEM_FACTOR, f"charpoly={t1.charpoly()}",
    ))
    run("L1.glue.structure", lambda: (
        _sylow_shape(l1) == {5: (5,), 3001: (3001, 3001)},
        f"sylow={_shape_str(_sylow_shape(l1))} order={glue_group(l1).order}",
    ))

    def l1_generator():
        g = glue_group(l1)
        v = L1_FIVE_GENERATOR
        coords = g.classify(v)
        order, q = g.class_order(coords), g.quadratic(coords)
        ok = g.lattice.in_dual(v) and order == 5 and q.value == Fraction(2, 5)
        return ok, f"v={_vec(v)} order={order} q={q}"

    run("L1.glue.5part.generator", l1_generator)

    def five_action(lattice, isometry):
        comp = next(
            c for c in sylow_decomposition(glue_group(lattice)) if c.prime == 5
        )
        m = induced_glue_action(isometry).sylow_matrix(comp)
        return m == IntMatrix([[4]]), f"matrix={_mat(m)} (-id mod 5)"

    run("L1.glue.5part.action", lambda: five_action(l1, t1))

    def big_prime_action(lattice, isometry):
        comp = next(
            c for c in sylow_decomposition(glue_group(lattice)) if c.prime == 3001
        )
        cp = induced_glue_action(isometry).charpoly_mod_p(comp)
        want = _fp_charpoly_of_product(3001)
        return cp == want, (
            f"charpoly={IntPoly(cp)} =(X+121)(X-124) mod 3001"
        )

    run("L1.glue.3001part.action", lambda: big_prime_action(l1, t1))

    # b(x,y m) = 6002(x^2 + xy - y^2): every norm is a multiple of 2*3001
    run("L1.norms.divisible", lambda: (
        l1.gram[0, 0] == 6002 and 2 * l1.gram[0, 1] == 6002
        and l1.gram[1, 1] == -6002,
        "norm(x,y)=6002*(x^2+xy-y^2)",
    ))
    # x^2+xy-y^2 = 0 forces (2x+y)^2 = 5y^2, impossible: 5 is not a square.
    # So nonzero norms have |.| >= 6002 > 2 and -2 is never represented.
    run("L1.no_minus2_vectors", lambda: (
        not is_perfect_square(5)
        and l1.bilinear((1, 0), (1, 0)) == 6002,
        "min|norm|=6002 attained at (1,0); disc 5 is not a square",
    ))

    # --- twisting element -----------------------------------------------
    a = assembly.parts["a"]
    u1, u2 = assembly.parts["u1"], assembly.parts["u2"]
    a_prime = assembly.parts["a_prime"]
    field = assembly.field

    run("element.integral", lambda: (
        a.is_integral(), f"coeffs={_vec(a.coeffs)}",
    ))
    run("element.involution_fixed", lambda: (a.conj() == a, "conj(a)=a"))

    def unit_norms():
        n1 = norm_real_subfield(real_subfield(u1))
        n2 = norm_real_subfield(real_subfield(u2))
        ok = abs(n1) == 1 and abs(n2) == 1 and a == u1 * u2 * a_prime
        return ok, f"N(u1)={n1} N(u2)={n2}"

    run("element.unit_factors", unit_norms)

    def element_norm():
        psi = field.psi_n
        na = norm_real_subfield(real_subfield(a))
        nap = norm_real_subfield(real_subfield(a_prime))
        quot = Fraction(psi(3), psi(-2))
        full = a.norm()
        ok = na == 3001 and nap == 3001 and quot == 3001 and full == 3001**2
        return ok, f"N(a)={na} N(a')={nap} Psi(3)/Psi(-2)={quot} N_K(a)={full}"

    run("element.norm", element_norm)
    run("element.divides_3001", lambda: (
        (3001 * a.inverse()).is_integral(), "3001*a^-1 is integral",
    ))

    # --- twisted piece ---------------------------------------------------
    run("L2.even", lambda: (
        l2.is_even(),
        f"diagonal_values={_vec(sorted(set(l2.gram[i, i] for i in range(l2.rank))))}",
    ))
    run("L2.signature", lambda: (
        l2.signature() == (2, 18), f"signature={l2.signature()}",
    ))
    run("L2.gram.toeplitz", lambda: (
        all(
            l2.gram[i, j] == l2.gram[0, abs(i - j)]
            for i in range(l2.rank) for j in range(l2.rank)
        ),
        "gram[i][j] depends only on |i-j|",
    ))
    run("L2.gram.first_row", lambda: (
        tuple(l2.gram[0, j] for j in range(l2.rank)) == TWISTED_GRAM_ROW,
        f"row={_vec(l2.gram[0, j] for j in range(l2.rank))}",
    ))
    run("L2.det", lambda: (
        l2.det == GLUE_ORDER, f"det={l2.det}=5*3001^2",
    ))
    run("L2.isometry.preserves_form", lambda: (
        t2.matrix.transpose() @ l2.gram @ t2.matrix == l2.gram,
        "companion matrix of Phi_50 preserves the twisted form",
    ))
    run("L2.isometry.charpoly", lambda: (
        t2.charpoly() == phi50, f"charpoly=Phi_50={phi50}",
    ))
    run("L2.glue.structure", lambda: (
        _sylow_shape(l2) == {5: (5,), 3001: (3001, 3001)},
        f"sylow={_shape_str(_sylow_shape(l2))} order={glue_group(l2).order}",
    ))

    def l2_generator():
        g = glue_group(l2)
        v = tuple(Fraction(c, 5) for c in TWISTED_FIVE_GENERATOR_NUMERATORS)
        norm = l2.bilinear(v, v)
        coords = g.classify(v)
        order, q = g.class_order(coords), g.quadratic(coords)
        ok = (
            g.lattice.in_dual(v)
            and norm == Fraction(-142, 5)
            and order == 5
            and q.value == Fraction(8, 5)  # -2/5 mod 2
        )
        return ok, f"b(v,v)={norm} order={order} q={q} (-2/5 mod 2)"

    run("L2.glue.5part.generator", l2_generator)
    run("L2.glue.5part.action", lambda: five_action(l2, t2))
    run("L2.glue.3001part.action", lambda: big_prime_action(l2, t2))

    def quotient():
        return once("quotient", lambda: real_subfield(dpsi_quotient(a)))

    def intervals():
        # the reference check's width, and the first one the sign rows try
        return once("intervals", lambda: real_embedding_values(quotient(), Fraction(1, 10**9)))

    def sign_rows():
        return once(
            "rows", lambda: real_embedding_signs(quotient(), EMBEDDING_DIGITS, intervals())
        )

    def sign_pattern():
        rows = sign_rows()
        positive = tuple(k for k, sign, _ in rows if sign > 0)
        pattern = "".join("+" if sign > 0 else "-" for _, sign, _ in rows)
        return positive == (7,), f"signs={pattern} positive_labels={_vec(positive)}"

    run("L2.embeddings.sign_pattern", sign_pattern)

    def embedding_values():
        ok = True
        for (_, (lo, hi)), text in zip(intervals(), EMBEDDING_REFERENCE):
            target = Fraction(text)
            tol = _print_tolerance(text)
            ok = ok and target - tol <= lo and hi <= target + tol
        printed = ",".join(text for _, _, text in sign_rows())
        return ok, (
            f"digits={EMBEDDING_DIGITS} computed={printed}"
            f" reference={','.join(EMBEDDING_REFERENCE)} tolerance=1ulp"
        )

    run("L2.embeddings.reference_values", embedding_values)

    # --- glued lattice ----------------------------------------------------
    gmap = assembly.glue_map
    result = assembly.result
    iso = assembly.isometry

    def glue_map_check():
        bad = verify_glue_map(
            gmap, induced_glue_action(t1), induced_glue_action(t2)
        )
        parts = ";".join(f"{gc.prime}:{_mat(gc.matrix)}" for gc in gmap.components)
        return bad is None, f"components={parts}" + (f" obstruction={bad}" if bad else "")

    run("K3.glue_map", glue_map_check)
    run("K3.rank", lambda: (
        result.ambient.rank == 22, f"rank={result.ambient.rank}",
    ))
    run("K3.even", lambda: (result.ambient.is_even(), "all norms even"))
    run("K3.unimodular", lambda: (
        abs(result.ambient.det) == 1, f"det={result.ambient.det}",
    ))
    run("K3.signature", lambda: (
        result.ambient.signature() == (3, 19),
        f"signature={result.ambient.signature()}",
    ))

    def index_check():
        index = abs(det(join_columns(result.embed1, result.embed2)))
        ok = index == GLUE_ORDER and index * index == abs(l1.det) * abs(l2.det)
        return ok, f"index={index} index^2=|det L1|*|det L2|"

    run("K3.overlattice_index", index_check)

    # checks below read the Gram matrix rebuilt from the gluing basis, so
    # they certify the construction data rather than the emitted object
    def _rebuild():
        basis = result.basis
        gram = basis @ block_diagonal(l1.gram, l2.gram) @ basis.transpose()
        return Lattice(exact_quotient(gram, result.scale**2))

    def rebuilt_lattice():
        return once("rebuilt", _rebuild)

    run("K3.isometry.preserves_form", lambda: (
        iso.matrix.transpose() @ rebuilt_lattice().gram @ iso.matrix
        == rebuilt_lattice().gram,
        "M^T G M = G on the rebuilt Gram matrix",
    ))
    run("K3.isometry.charpoly", lambda: (
        charpoly(iso.matrix) == SALEM_FACTOR * phi50,
        f"charpoly=({SALEM_FACTOR})*Phi_50",
    ))
    run("K3.sublattice1.primitive", lambda: (
        is_primitive(rebuilt_lattice(), result.embed1)[0],
        "elementary divisors of the embedding are all 1",
    ))
    run("K3.sublattice2.primitive", lambda: (
        is_primitive(rebuilt_lattice(), result.embed2)[0],
        "elementary divisors of the embedding are all 1",
    ))
    run("K3.sublattice1.invariant", lambda: (
        iso.matrix @ result.embed1 == result.embed1 @ t1.matrix,
        f"restriction={_mat(t1.matrix)}",
    ))

    def complement_data():
        return once(
            "complement",
            lambda: orthogonal_complement(rebuilt_lattice(), result.embed1),
        )

    run("K3.complement.signature", lambda: (
        complement_data()[1].signature() == (2, 18),
        f"signature={complement_data()[1].signature()}",
    ))

    def complement_charpoly():
        basis, _ = complement_data()
        rest = restrict_isometry(iso, basis)
        cp = charpoly(rest)
        return cp == phi50, f"charpoly={cp}"

    run("K3.complement.charpoly", complement_charpoly)

    # --- square predicate on F = (X^2-3X+1)*Phi_50 -------------------------
    f = SALEM_FACTOR * phi50
    f1, fm1 = f(1), f(-1)
    product = -f1 * fm1  # (-1)^11, 11 = rank/2
    run("F.at_1", lambda: (
        abs(f1) == 1 and is_perfect_square(abs(f1)), f"F(1)={f1} |F(1)|=1=1^2",
    ))
    run("F.at_minus_1", lambda: (
        abs(fm1) == 25 and is_perfect_square(abs(fm1)), f"F(-1)={fm1}=5^2",
    ))
    run("F.signed_product", lambda: (
        product == 25 and is_perfect_square(product),
        f"(-1)^11*F(1)*F(-1)={product}=5^2",
    ))

    return CertificationReport(tuple(checks))
