"""Cylinder functions J0, J1, Y0, Y1 of the reduced study against frozen oracles.

The reference values were produced once with an extended-precision
ascending series (mpmath at 30 digits) and frozen below; the acceptance
band is relative away from zeros and absolute (scaled by the large-x
envelope sqrt(2/(pi x))) near them.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxramp.errors import ValidationError
from fluxramp.reduced import bessel_j, bessel_y

# (x, value) pairs, mpmath 30-digit series, 20 digits kept
J0_TABLE = [
    (0.05, 0.99937509764946858088), (0.3, 0.97762624653829608757),
    (0.5, 0.93846980724081290423), (1.0, 0.76519768655796655145),
    (2.0, 0.22389077914123566805), (3.7, -0.39923020337119110577),
    (5.0, -0.17759677131433830435), (7.9, 0.19436184484127831756),
    (8.1, 0.14751745404437758233), (11.0, -0.17119030040719608835),
    (14.9, 0.0063915448908529803273), (15.1, -0.034561851455565027681),
    (22.0, -0.12065147570486718016), (30.0, -0.086367983581040211336),
    (55.5, -0.0281040743011523956), (100.0, 0.019985850304223122424),
    (347.0, 0.034380191393550760026), (1000.0, 0.024786686152420174561),
]
J1_TABLE = [
    (0.05, 0.024992188313759699133), (0.3, 0.14831881627310400774),
    (0.5, 0.24226845767487388638), (1.0, 0.44005058574493351596),
    (2.0, 0.5767248077568733872), (3.7, 0.053833987745461864015),
    (5.0, -0.32757913759146522204), (7.9, 0.21917939992175114408),
    (8.1, 0.24760776698159291818), (11.0, -0.17678529895672150114),
    (14.9, 0.20687617180992505595), (15.1, 0.20131022040849090094),
    (22.0, 0.11717778964385170066), (30.0, -0.11875106261662293652),
    (55.5, -0.1036030058959336272), (100.0, -0.077145352014112158033),
    (347.0, 0.025596378484307997581), (1000.0, 0.0047283119070895239176),
]
Y0_TABLE = [
    (0.05, -1.9793110008172096721), (0.3, -0.80727357780451946575),
    (0.5, -0.44451873350670655715), (1.0, 0.088256964215676957983),
    (2.0, 0.5103756726497451196), (3.7, 0.10607431532035418428),
    (5.0, -0.30851762524903378007), (7.9, 0.20652094814437570403),
    (8.1, 0.23809132870223485593), (11.0, -0.16884732389207954182),
    (14.9, 0.20654643470696920523), (15.1, 0.20234322922865160948),
    (22.0, 0.11988759780067155976), (30.0, -0.11729573168666402525),
    (55.5, -0.10334564480672326008), (100.0, -0.077244313365083152254),
    (347.0, 0.025546812885951613299), (1000.0, 0.0047159179776228133998),
]
Y1_TABLE = [
    (0.05, -12.789855171174970408), (0.3, -2.2931051383885290472),
    (0.5, -1.4714723926702430692), (1.0, -0.78121282130028871655),
    (2.0, -0.10703243154093754689), (3.7, 0.41667437268380749445),
    (5.0, 0.1478631433912268448), (7.9, -0.1817210772805732092),
    (8.1, -0.13314879595249583572), (11.0, 0.16370553741494285432),
    (14.9, 0.0005282750764216241623), (15.1, 0.041273534009483639532),
    (22.0, 0.12340585622650762281), (30.0, 0.084425570661747234891),
    (55.5, 0.027174247859296399134), (100.0, -0.020372312002759793305),
    (347.0, -0.034343416190990659205), (1000.0, -0.024784331292351778915),
]


def _envelope(x):
    return np.sqrt(2.0 / (np.pi * max(x, 1.0)))


@pytest.mark.parametrize("order,table,func", [
    (0, J0_TABLE, bessel_j), (1, J1_TABLE, bessel_j),
    (0, Y0_TABLE, bessel_y), (1, Y1_TABLE, bessel_y),
])
def test_frozen_oracle_table(order, table, func):
    for x, ref in table:
        got = func(order, x)
        assert abs(got - ref) <= 1e-12 * (abs(ref) + 0.1 * _envelope(x)), (order, x)


def test_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0


def test_y_diverges_near_zero():
    # logarithmic blow-up: finite but large and negative for tiny x
    assert bessel_y(0, 1e-12) < -17.0
    assert bessel_y(1, 1e-12) < -1e11


def test_named_values():
    assert_allclose(bessel_j(0, 1.0), 0.76519768655796655, rtol=1e-14)
    assert_allclose(bessel_y(0, 1.0), 0.08825696421567696, rtol=1e-13)
    assert_allclose(bessel_y(1, 1.0), -0.78121282130028872, rtol=1e-14)


def test_domain_errors():
    with pytest.raises(ValidationError):
        bessel_j(0, -1.0)
    with pytest.raises(ValidationError):
        bessel_j(2, 1.0)
    with pytest.raises(ValidationError):
        bessel_y(0, 0.0)
    with pytest.raises(ValidationError):
        bessel_y(1, -3.0)
    with pytest.raises(ValidationError):
        bessel_j(0, np.inf)


def test_wronskian_identity():
    x = np.geomspace(0.1, 100.0, 400)
    w = bessel_j(1, x) * bessel_y(0, x) - bessel_j(0, x) * bessel_y(1, x)
    assert_allclose(w, 2.0 / (np.pi * x), rtol=1e-10)


def test_derivative_relation():
    # d/dx J0 = -J1 via central differences, O(h^2)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.2, 60.0, 50)
    h = 1e-5
    d = (bessel_j(0, x + h) - bessel_j(0, x - h)) / (2 * h)
    assert np.max(np.abs(d + bessel_j(1, x))) < 5e-10


def test_dense_scan_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 25
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.uniform(1e-3, 15.0, 40), rng.uniform(15.0, 400.0, 40)])
    for x in xs:
        x = float(x)
        for order in (0, 1):
            ref = float(mpmath.besselj(order, mpmath.mpf(x)))
            assert abs(bessel_j(order, x) - ref) <= 1e-12 * (abs(ref) + 0.1 * _envelope(x))
            ref = float(mpmath.bessely(order, mpmath.mpf(x)))
            assert abs(bessel_y(order, x) - ref) <= 1e-12 * (abs(ref) + 0.1 * _envelope(x))
