"""Polynomial long division over dicts: the tests' oracle for every quotient
the program takes by strided running sums or in packed slots.

`dict_long_division` divides lowest exponent first by any denominator, with
no stride, packing or slot width, so it shares nothing with
`qpoly.qbinomial` or `closedform.closed_form_result`; `one_minus_product`
builds the denominators prod(1 - q^j) those divide by.  A division that is
not exact fails the test that asked for it.
"""

from grassmap.qpoly import QPolynomial


def dict_long_division(numerator, denominator):
    """Lowest-exponent-first long division over a dict remainder: the quotient,
    or AssertionError naming what was left.  It takes any denominator, and
    stops at a term that would need a quotient term below q^0."""
    rem = dict(numerator.terms())
    den = dict(denominator.terms())
    den_low = min(den)
    top = max(rem) - max(den)
    quot = {}
    while rem:
        low = min(rem)
        e = low - den_low
        if e < 0 or e > top:
            break
        c, leftover = divmod(rem[low], den[den_low])
        if leftover:
            break
        quot[e] = c
        for de, dc in den.items():
            rem[de + e] = rem.get(de + e, 0) - dc * c
            if not rem[de + e]:
                del rem[de + e]
    if rem:
        raise AssertionError(f"non-exact division: remainder {QPolynomial(rem)}")
    return QPolynomial(quot)


def one_minus_product(factors):
    """prod(1 - q^j) over the exponents j in `factors`, as a dict product."""
    product = {0: 1}
    for j in factors:
        step = dict(product)
        for e, c in product.items():
            step[e + j] = step.get(e + j, 0) - c
        product = step
    return QPolynomial(product)
