"""Element readings the tests use but the package does not run."""

from maxclass.divided_powers import SemidirectElement


def graded_degree(element: SemidirectElement, m: int) -> int:
    """Degree of a homogeneous element: a monomial t^r x^(i) in the module
    sits in degree r q + (q + m) - i, and an operator entry t^s at
    (row, col) in degree col - row + s q.  Raises on zero or mixed input.
    """
    q = element.ring.q
    degrees = {r * q + q + m - i for i, r in element.vec.entries}
    degrees.update(col - row + s * q for row, col, s in element.op.entries)
    if not degrees:
        raise ValueError("the zero element has no degree")
    if len(degrees) > 1:
        raise ValueError(f"inhomogeneous element, degrees {sorted(degrees)}")
    return degrees.pop()
