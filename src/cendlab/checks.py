"""Fixed manifest of the verification laws the CLI can run.

Every report entry carries one of these identifiers, so reports stay
byte-for-byte stable and each check names the mathematical law it tests.
"""

CHECK_MANIFEST = {
    "hopf.coassociativity": "(Delta x id)Delta = (id x Delta)Delta on the indicator basis",
    "hopf.counit": "(eps x id)Delta = id = (id x eps)Delta",
    "hopf.antipode": "m(S x id)Delta = eps(.)1 = m(id x S)Delta",
    "hopf.coproduct-multiplicative": "Delta(fh) = Delta(f)Delta(h)",
    "hopf.left-shift": "L_g1 L_g2 = L_{g2 g1} and L_g is an algebra map",
    "hopf.coaction": "coaction is a counital coassociative algebra map",
    "conf.h-action-left": "(h a o_g b) = h(g^-1)(a o_g b)",
    "conf.h-action-right": "(a o_g h b) = (L_g h)(a o_g b)",
    "conf.composition": "a o_g (b o_y c) = (a o_g b) o_{yg} c",
    "conf.regularity": "point-indexed products are automatically regular over a finite group",
    "phi.roundtrip": "operator form and tensor form invert each other",
    "phi.transport": "the tensor-form products match the operator-form products",
    "op.product-law": "a(g) b(z) = (a o_g b)(zg) as matrices",
    "wn.full-dimension": "evaluation span of the whole algebra is all of End M",
    "wn.vector-closure": "closing any single module vector under the evaluations is everything",
    "irred.enrich-test": "irreducible iff the middle-slot enrichment is the whole algebra",
    "irred.certificate": "reducible spans produce an invariant proper submodule when one is rational",
    "ideal.right-shape": "a right ideal factors as H (x) B0",
    "ideal.left-shape": "a left ideal straightens to H (x) B0 through the twist",
    "ideal.essential": "essential iff zero right annihilator iff the whole matrix ring",
    "simple.transitivity": "the algebra over (G, V) is simple iff the action on V is transitive",
    "classify.validate-chi": "coset ratios of chi are representative independent",
    "classify.build": "the span built from (G1, chi) is closed and irreducible",
    "classify.canonical": "normalizing an irreducible subalgebra recovers (G1, chi)",
    "weyl.products": "binomial product formula on the affine-line algebra",
    "weyl.c2": "derivation identities for the T-multiplication",
    "weyl.locality": "products vanish beyond the support bound",
    "weyl.first-weyl-relation": "coefficient operators satisfy d x - x d = 1",
    "operad.pair-index": "the block/slot pairing is a bijection",
    "operad.associativity": "tree substitution composes associatively",
    "operad.identity": "single leaves are neutral for substitution",
}
