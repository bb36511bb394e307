"""The rational segment predicates the tests take as the oracle for
``coretorus.geometry``'s integer ones: each coordinate difference and
product is a Fraction operation, as the predicates were first written.
Nothing in ``coretorus`` uses them.
"""


def orient2(p, q, r):
    """Sign of the cross product (q-p) x (r-p)."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def on_segment(p, q, r):
    """Is r on the closed segment pq (assuming collinear)?"""
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def segments_intersect(p1, q1, p2, q2):
    """Do the closed segments share any point?"""
    d1 = orient2(p2, q2, p1)
    d2 = orient2(p2, q2, q1)
    d3 = orient2(p1, q1, p2)
    d4 = orient2(p1, q1, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    if d1 == 0 and on_segment(p2, q2, p1):
        return True
    if d2 == 0 and on_segment(p2, q2, q1):
        return True
    if d3 == 0 and on_segment(p1, q1, p2):
        return True
    if d4 == 0 and on_segment(p1, q1, q2):
        return True
    return False


def segments_cross_properly(p1, q1, p2, q2):
    """Transverse interior crossing: endpoints strictly on opposite sides."""
    d1 = orient2(p2, q2, p1)
    d2 = orient2(p2, q2, q1)
    d3 = orient2(p1, q1, p2)
    d4 = orient2(p1, q1, q2)
    return d1 * d2 < 0 and d3 * d4 < 0

