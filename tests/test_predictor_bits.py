"""Predictor outputs pinned bit for bit.

`PINNED` holds the `float.hex` of the median, the 0.05 and 0.95 quantiles,
the mean and alpha of every predictor kind, copula, marginal and
conditioning time in `CASES` (the name of the error class where a call
raises).  The table was generated from the same code path that `outputs`
runs, so any change to the order or grouping of floating-point operations
in the distortion sums, the law or the solver shows here.  Regenerate it
only for a change that is shown to be an accuracy fix.

    PYTHONPATH=src python tests/test_predictor_bits.py   # prints the table
"""

import itertools

import numpy as np
import pytest

from syspredict import (
    ClaytonPairCopula,
    EarlyFailurePredictor,
    Exponential,
    FGMCopula,
    ProductCopula,
    TwoFailurePredictor,
    Weibull,
    k_out_of_n,
    parallel,
    series,
    validate_structure,
)
from syspredict import distortion
from syspredict.errors import SysPredictError
from syspredict.predictor import _solve_increasing, _solve_one

COPULAS = {
    "product": ProductCopula(3),
    "fgm1": FGMCopula(theta=1.0, n=3),
    "fgm-0.8": FGMCopula(theta=-0.8, n=3),
    "clayton1": ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3),
    "clayton2.5": ClaytonPairCopula(pair=(2, 3), theta=2.5, n=3),
}
MARGINALS = {"exp": Exponential(1.0), "weibull": Weibull(shape=1.7, scale=1.3)}
KINDS = ("strict", "weak", "alive", "two")
TIMES = (0.0, 0.4, 3.0)
CASES = tuple(itertools.product(KINDS, COPULAS, MARGINALS, TIMES))

RELAY = validate_structure(3, [[1], [2, 3]])
GATE = validate_structure(3, [[1, 2], [1, 3]])


def predictor(kind, copula, marginal):
    if kind == "two":
        return TwoFailurePredictor(series(3), k_out_of_n(2, 3), parallel(3), copula, marginal)
    system = RELAY if kind == "strict" else GATE
    return EarlyFailurePredictor(series(3), system, copula, marginal, mode=kind)


def _hex(call):
    try:
        return float(call()).hex()
    except SysPredictError as exc:
        return type(exc).__name__


def predictor_at(kind, copula, marginal, t):
    """The case's predictor and conditioning times; two failures at (t/2, t)."""
    cond = (0.5 * t, t) if kind == "two" else (t,)
    return predictor(kind, COPULAS[copula], MARGINALS[marginal]), cond


def outputs(kind, copula, marginal, t):
    """(median, q05, q95, mean, alpha) hex strings."""
    p, cond = predictor_at(kind, copula, marginal, t)
    return (
        _hex(lambda: p.median(*cond)),
        _hex(lambda: p.quantile(0.05, *cond)),
        _hex(lambda: p.quantile(0.95, *cond)),
        _hex(lambda: p.mean(*cond)),
        _hex(lambda: p.alpha(*cond)),
    )


PINNED = {
    ('strict', 'product', 'exp', 0.0):
        ('0x1.15e55f6e98e07p-1', '0x1.501acd6ce4d62p+1', '0x1.3c288d40e7f72p-5', '0x1.aaaaaaaaaaaaap-1', '0x1.0000000000000p+0'),
    ('strict', 'product', 'exp', 0.4):
        ('0x1.e2b22c3b65ad2p-1', '0x1.834e00a018095p+1', '0x1.c11eab41b6987p-2', '0x1.3bbbbbbbbbbbcp+0', '0x1.0000000000000p+0'),
    ('strict', 'product', 'exp', 3.0):
        ('0x1.c57957dba6382p+1', '0x1.680d66b6726b1p+2', '0x1.84f0a235039fdp+1', '0x1.eaaaaaaaaaaaap+1', '0x1.0000000000000p+0'),
    ('strict', 'product', 'weibull', 0.0):
        ('0x1.d0a017934a136p-1', '0x1.259dab5fe5113p+1', '0x1.8879771a5a9efp-3', '0x1.07cbd5abb6471p+0', '0x1.0000000000000p+0'),
    ('strict', 'product', 'weibull', 0.4):
        ('0x1.08b3764c5843ap+0', '0x1.2e64a3b6da57ap+1', '0x1.daf80c02a964cp-2', '0x1.2c31555f9b900p+0', '0x1.0000000000000p+0'),
    ('strict', 'product', 'weibull', 3.0):
        ('0x1.9cd58bdaa5de6p+1', '0x1.004437991b4c0p+2', '0x1.82198850526b9p+1', '0x1.aa3d58f85fa85p+1', '0x1.0000000000000p+0'),
    ('strict', 'fgm1', 'exp', 0.0):
        ('0x1.062a26c3ed3b2p-1', '0x1.4c3cf6e9a1ffcp+1', '0x1.39542ee10b563p-5', '0x1.9c71c71c71c72p-1', '0x1.0000000000000p+0'),
    ('strict', 'fgm1', 'exp', 0.4):
        ('0x1.cfebd959903aap-1', '0x1.790683a6f7f04p+1', '0x1.be40034e3ea10p-2', '0x1.31b570b27e850p+0', '0x1.0000000000000p+0'),
    ('strict', 'fgm1', 'exp', 3.0):
        ('0x1.c6bf5bf79e237p+1', '0x1.696f8c8e0adf5p+2', '0x1.850e73051dbacp+1', '0x1.ec01f7c2cd166p+1', '0x1.0000000000000p+0'),
    ('strict', 'fgm1', 'weibull', 0.0):
        ('0x1.c0f7e8c2f7adep-1', '0x1.239fce8cf66fap+1', '0x1.86678877296f1p-3', '0x1.01e67de540d8ep+0', '0x1.0000000000000p+0'),
    ('strict', 'fgm1', 'weibull', 0.4):
        ('0x1.f9ba6a918ff9dp-1', '0x1.27e6228b456b7p+1', '0x1.d5f940d841055p-2', '0x1.21ecf2a851094p+0', '0x1.0000000000000p+0'),
    ('strict', 'fgm1', 'weibull', 3.0):
        ('0x1.9d010853098bep+1', '0x1.006d56fab5057p+2', '0x1.821dab1345ed8p+1', '0x1.aa68e9767e230p+1', '0x1.0000000000000p+0'),
    ('strict', 'fgm-0.8', 'exp', 0.0):
        ('0x1.239861b11bcd1p-1', '0x1.52fdd371543c9p+1', '0x1.3e7e762c8f24ap-5', '0x1.b60b60b60b60cp-1', '0x1.0000000000000p+0'),
    ('strict', 'fgm-0.8', 'exp', 0.4):
        ('0x1.f185ded5ff2c2p-1', '0x1.8a7bc0e1fee1ep+1', '0x1.c3919373e512cp-2', '0x1.433be23b48ee5p+0', '0x1.0000000000000p+0'),
    ('strict', 'fgm-0.8', 'exp', 3.0):
        ('0x1.c062dd83a799fp+1', '0x1.6200f2ba497c4p+2', '0x1.8481cb3e3dff3p+1', '0x1.e51a6783f0b61p+1', '0x1.0000000000000p+0'),
    ('strict', 'fgm-0.8', 'weibull', 0.0):
        ('0x1.ddf6ff387cd4ep-1', '0x1.2718c3d9946ccp+1', '0x1.8a2d69cc88403p-3', '0x1.0c834f17476c1p+0', '0x1.0000000000000p+0'),
    ('strict', 'fgm-0.8', 'weibull', 0.4):
        ('0x1.1295ed78008fcp+0', '0x1.32eb6c66992c7p+1', '0x1.df81da46596c6p-2', '0x1.343b7016c7f6ap+0', '0x1.0000000000000p+0'),
    ('strict', 'fgm-0.8', 'weibull', 3.0):
        ('0x1.9bcbecc95d9d0p+1', '0x1.fe7ca76509e29p+1', '0x1.820126c0ee214p+1', '0x1.a92ef1bd92b3fp+1', '0x1.0000000000000p+0'),
    ('strict', 'clayton1', 'exp', 0.0):
        ('0x1.2b9e23934f9abp-1', '0x1.68e6a364b5974p+1', '0x1.3f17b97b6c127p-5', '0x1.cba1654fe1350p-1', '0x1.0000000000000p+0'),
    ('strict', 'clayton1', 'exp', 0.4):
        ('0x1.03dc870e73205p+0', '0x1.a1074e108bbfcp+1', '0x1.c5994e2b2d461p-2', '0x1.52f324f890784p+0', '0x1.0000000000000p+0'),
    ('strict', 'clayton1', 'exp', 3.0):
        ('0x1.d7edc66adb05fp+1', '0x1.7ef989f53b587p+2', '0x1.867c647457b53p+1', '0x1.ff34f35102552p+1', '0x1.0000000000000p+0'),
    ('strict', 'clayton1', 'weibull', 0.0):
        ('0x1.e5a8274efafbep-1', '0x1.322bc0f3e5c17p+1', '0x1.8a9cf2ba48e9dp-3', '0x1.1354107c9331bp+0', '0x1.0000000000000p+0'),
    ('strict', 'clayton1', 'weibull', 0.4):
        ('0x1.14a166aa90c3ap+0', '0x1.3b682720a0aa2p+1', '0x1.ddff382693c40p-2', '0x1.38dcf91f8f6b3p+0', '0x1.0000000000000p+0'),
    ('strict', 'clayton1', 'weibull', 3.0):
        ('0x1.a47971bdbb07bp+1', '0x1.0854d38bef0f2p+2', '0x1.82c73718b2893p+1', '0x1.b238cf3d062c2p+1', '0x1.0000000000000p+0'),
    ('strict', 'clayton2.5', 'exp', 0.0):
        ('0x1.3e31c4ac5e7f1p-1', '0x1.74afb63f707bcp+1', '0x1.434925dfb1c97p-5', '0x1.e038f0cff30a8p-1', '0x1.0000000000000p+0'),
    ('strict', 'clayton2.5', 'exp', 0.4):
        ('0x1.104642c57f354p+0', '0x1.ae15804cdb036p+1', '0x1.c99ad4c963e40p-2', '0x1.5fd568f7e4a76p+0', '0x1.0000000000000p+0'),
    ('strict', 'clayton2.5', 'exp', 3.0):
        ('0x1.d8b78e0ca475cp+1', '0x1.7fb92c037acbap+2', '0x1.86908f8055be5p+1', '0x1.fffeb49b69258p+1', '0x1.0000000000000p+0'),
    ('strict', 'clayton2.5', 'weibull', 0.0):
        ('0x1.f726502fdefa4p-1', '0x1.3803652c98d14p+1', '0x1.8da7b70c49f41p-3', '0x1.1af1098a899bdp+0', '0x1.0000000000000p+0'),
    ('strict', 'clayton2.5', 'weibull', 0.4):
        ('0x1.1e0f4e42a7fdcp+0', '0x1.4196bb8c96886p+1', '0x1.e1accb9fc3e83p-2', '0x1.412f5420346c8p+0', '0x1.0000000000000p+0'),
    ('strict', 'clayton2.5', 'weibull', 3.0):
        ('0x1.a49358fcb469ap+1', '0x1.0869c7d8e6d7ap+2', '0x1.82c9f66953045p+1', '0x1.b2515a7770e53p+1', '0x1.0000000000000p+0'),
    ('weak', 'product', 'exp', 0.0):
        ('0x1.269621134f304p-3', '0x1.4b8ddfddbf376p+0', '0x0.0p+0', '0x1.5555555555556p-2', '0x1.5555555555555p-1'),
    ('weak', 'product', 'exp', 0.4):
        ('0x1.167255119fdd4p-1', '0x1.b1f44644259ddp+0', '0x1.999999999999ap-2', '0x1.7777777777778p-1', '0x1.5555555555555p-1'),
    ('weak', 'product', 'exp', 3.0):
        ('0x1.9269621134f30p+1', '0x1.12e377f76fcdep+2', '0x1.8000000000000p+1', '0x1.aaaaaaaaaaaabp+1', '0x1.5555555555555p-1'),
    ('weak', 'product', 'weibull', 0.0):
        ('0x1.a97b27fe2bf90p-2', '0x1.837b342b1c26fp+0', '0x0.0p+0', '0x1.0759005f82c03p-1', '0x1.5555555555555p-1'),
    ('weak', 'product', 'weibull', 0.4):
        ('0x1.39e805f8e3a07p-1', '0x1.9ab9b6695c8e3p+0', '0x1.999999999999ap-2', '0x1.83567e4d43d02p-1', '0x1.5555555555556p-1'),
    ('weak', 'product', 'weibull', 3.0):
        ('0x1.87c923d02b3e7p+1', '0x1.c29ea01b4115ep+1', '0x1.8000000000000p+1', '0x1.916384eb5f1c4p+1', '0x1.5555555555555p-1'),
    ('weak', 'fgm1', 'exp', 0.0):
        ('0x1.15f5527ee526dp-3', '0x1.07626689f273bp+0', '0x0.0p+0', '0x1.1c71c71c71c72p-2', '0x1.5555555555555p-1'),
    ('weak', 'fgm1', 'exp', 0.4):
        ('0x1.10c764f7592cap-1', '0x1.979d5e601ac17p+0', '0x1.999999999999ap-2', '0x1.6a0d205e1563ep-1', '0x1.5555555555556p-1'),
    ('weak', 'fgm1', 'exp', 3.0):
        ('0x1.92d2b56799a43p+1', '0x1.13fd475b6080ep+2', '0x1.8000000000000p+1', '0x1.ab57ff8139988p+1', '0x1.5555555555555p-1'),
    ('weak', 'fgm1', 'weibull', 0.0):
        ('0x1.9b2f5a942e434p-2', '0x1.5269ee10b5975p+0', '0x0.0p+0', '0x1.df87428b5a0e8p-2', '0x1.5555555555555p-1'),
    ('weak', 'fgm1', 'weibull', 0.4):
        ('0x1.3024adf75574ap-1', '0x1.73c0adfa6e2c0p+0', '0x1.999999999999ap-2', '0x1.6e95c06e3310cp-1', '0x1.5555555555556p-1'),
    ('weak', 'fgm1', 'weibull', 3.0):
        ('0x1.87d79de8222d4p+1', '0x1.c2e5701b52ad3p+1', '0x1.8000000000000p+1', '0x1.917a1fd966867p+1', '0x1.5555555555555p-1'),
    ('weak', 'fgm-0.8', 'exp', 0.0):
        ('0x1.36b08e383ad34p-3', '0x1.7dc51e5990898p+0', '0x0.0p+0', '0x1.82d82d82d82d8p-2', '0x1.5555555555555p-1'),
    ('weak', 'fgm-0.8', 'exp', 0.4):
        ('0x1.1b455d7810864p-1', '0x1.c43197375f78fp+0', '0x1.999999999999ap-2', '0x1.81811b55d0ffep-1', '0x1.5555555555556p-1'),
    ('weak', 'fgm-0.8', 'exp', 3.0):
        ('0x1.90d950161eff6p+1', '0x1.0e10ae66b4fc8p+2', '0x1.8000000000000p+1', '0x1.a7db8fee88662p+1', '0x1.5555555555556p-1'),
    ('weak', 'fgm-0.8', 'weibull', 0.0):
        ('0x1.b7032aa58d296p-2', '0x1.a4ff1c298f844p+0', '0x0.0p+0', '0x1.1a36e60dc7542p-1', '0x1.5555555555555p-1'),
    ('weak', 'fgm-0.8', 'weibull', 0.4):
        ('0x1.433444a758b11p-1', '0x1.b477196631270p+0', '0x1.999999999999ap-2', '0x1.9396875413eb7p-1', '0x1.5555555555555p-1'),
    ('weak', 'fgm-0.8', 'weibull', 3.0):
        ('0x1.8772dca803268p+1', '0x1.c0db11bdd320bp+1', '0x1.8000000000000p+1', '0x1.90d7359907722p+1', '0x1.5555555555555p-1'),
    ('weak', 'clayton1', 'exp', 0.0):
        ('0x1.88c82c19bfe58p-4', '0x1.ba127fd253ba3p-1', '0x0.0p+0', '0x1.c71c71c71c71cp-3', '0x1.5555555555555p-1'),
    ('weak', 'clayton1', 'exp', 0.4):
        ('0x1.e434655670d62p-2', '0x1.5672ef8027b8fp+0', '0x1.999999999999ap-2', '0x1.424abc42941aep-1', '0x1.33897d1556303p-1'),
    ('weak', 'clayton1', 'exp', 3.0):
        ('0x1.80ca7788676eap+1', '0x1.0152ec4b3961cp+2', '0x1.8000000000000p+1', '0x1.9d2e308e4bcbap+1', '0x1.0339fe04d874dp-1'),
    ('weak', 'clayton1', 'weibull', 0.0):
        ('0x1.4f31d8a1c1675p-2', '0x1.3142261cbd747p+0', '0x0.0p+0', '0x1.9eee7477c59f5p-2', '0x1.5555555555555p-1'),
    ('weak', 'clayton1', 'weibull', 0.4):
        ('0x1.139811b7d159bp-1', '0x1.52ae9bb6da0c7p+0', '0x1.999999999999ap-2', '0x1.532523565862bp-1', '0x1.478f86059eab2p-1'),
    ('weak', 'clayton1', 'weibull', 3.0):
        ('0x1.801b9a853ec6bp+1', '0x1.b54248509634dp+1', '0x1.8000000000000p+1', '0x1.8bf19a691041ep+1', '0x1.0104ea889e855p-1'),
    ('weak', 'clayton2.5', 'exp', 0.0):
        ('0x1.05dac8112b8fbp-4', '0x1.26b6ffe18d03bp-1', '0x0.0p+0', '0x1.2f684bda12f68p-3', '0x1.5555555555555p-1'),
    ('weak', 'clayton2.5', 'exp', 0.4):
        ('0x1.b8b5461fa0649p-2', '0x1.0c8791b6cec89p+0', '0x1.999999999999ap-2', '0x1.1bb672727a664p-1', '0x1.19edd0d516877p-1'),
    ('weak', 'clayton2.5', 'exp', 3.0):
        ('0x1.8001a5baa234ap+1', '0x1.d653b629c14a2p+1', '0x1.8000000000000p+1', '0x1.938d5d7d8af1cp+1', '0x1.0009101ff2626p-1'),
    ('weak', 'clayton2.5', 'weibull', 0.0):
        ('0x1.0811244051e08p-2', '0x1.e0f755f892c47p-1', '0x0.0p+0', '0x1.46e23aacfd755p-2', '0x1.5555555555555p-1'),
    ('weak', 'clayton2.5', 'weibull', 0.4):
        ('0x1.f0ad233ca9443p-2', '0x1.18f9763042f6bp+0', '0x1.999999999999ap-2', '0x1.2e9df90336f45p-1', '0x1.379c593c680b9p-1'),
    ('weak', 'clayton2.5', 'weibull', 3.0):
        ('0x1.80000a4a7700bp+1', '0x1.a39e817577ebap+1', '0x1.8000000000000p+1', '0x1.881dd00cf4e63p+1', '0x1.000084e881a19p-1'),
    ('alive', 'product', 'exp', 0.0):
        ('0x1.62e42fefa459cp-2', '0x1.7f7427b73e680p+0', '0x1.a431d5bcb5da8p-6', '0x1.0000000000000p-1', '0x1.5555555555555p-1'),
    ('alive', 'product', 'exp', 0.4):
        ('0x1.7e3ee4c49ef99p-1', '0x1.e5da8e1da4ce6p+0', '0x1.b3dcb6f564f72p-2', '0x1.cccccccccccccp-1', '0x1.5555555555555p-1'),
    ('alive', 'product', 'exp', 3.0):
        ('0x1.ac5c85fdf48b3p+1', '0x1.1fdd09edcf9a0p+2', '0x1.834863ab799aap+1', '0x1.c000000000000p+1', '0x1.5555555555555p-1'),
    ('alive', 'product', 'weibull', 0.0):
        ('0x1.64dd9c1f871c2p-1', '0x1.a61675b01d621p+0', '0x1.349bf85310547p-3', '0x1.8b05808f44205p-1', '0x1.5555555555555p-1'),
    ('alive', 'product', 'weibull', 0.4):
        ('0x1.b0f7ddd3ec6dfp-1', '0x1.bc0a4dd462e5ap+0', '0x1.c5c76760c032ap-2', '0x1.de9b570d7f51bp-1', '0x1.5555555555556p-1'),
    ('alive', 'product', 'weibull', 3.0):
        ('0x1.92942ab3d4519p+1', '0x1.cc6ce4ac75117p+1', '0x1.81656f9df62f4p+1', '0x1.9a1547610eaa6p+1', '0x1.5555555555555p-1'),
    ('alive', 'fgm1', 'exp', 0.0):
        ('0x1.3d34ad038cf00p-2', '0x1.2c7375417e006p+0', '0x1.9f11152cc282cp-6', '0x1.aaaaaaaaaaaabp-2', '0x1.5555555555555p-1'),
    ('alive', 'fgm1', 'exp', 0.4):
        ('0x1.6fe7778c35710p-1', '0x1.c84883ab96029p+0', '0x1.b1ef1068d9907p-2', '0x1.b8ad4a26b9af8p-1', '0x1.5555555555556p-1'),
    ('alive', 'fgm1', 'exp', 3.0):
        ('0x1.ad41ff5a4b26ep+1', '0x1.210a06a504786p+2', '0x1.835c578c1803fp+1', '0x1.c103ff41d664cp+1', '0x1.5555555555555p-1'),
    ('alive', 'fgm1', 'weibull', 0.0):
        ('0x1.4e0f9b884ffd3p-1', '0x1.6daab15b11075p+0', '0x1.326364ed070e2p-3', '0x1.67a571e8838aep-1', '0x1.5555555555555p-1'),
    ('alive', 'fgm1', 'weibull', 0.4):
        ('0x1.998f0912c0017p-1', '0x1.90787a2f8577dp+0', '0x1.c245fe5795d2cp-2', '0x1.bf7a3a3ee632ap-1', '0x1.5555555555556p-1'),
    ('alive', 'fgm1', 'weibull', 3.0):
        ('0x1.92b32e2cc4c23p+1', '0x1.ccb771f648313p+1', '0x1.816834c6b4464p+1', '0x1.9a372fc619c9ap+1', '0x1.5555555555555p-1'),
    ('alive', 'fgm-0.8', 'exp', 0.0):
        ('0x1.8b427f86794d7p-2', '0x1.b68325af96659p+0', '0x1.a87af459ef813p-6', '0x1.2222222222222p-1', '0x1.5555555555555p-1'),
    ('alive', 'fgm-0.8', 'exp', 0.4):
        ('0x1.8a21bd4c84900p-1', '0x1.f9af20bf51a4cp+0', '0x1.b583a1dde3f74p-2', '0x1.dbdb429a53195p-1', '0x1.5555555555556p-1'),
    ('alive', 'fgm-0.8', 'exp', 3.0):
        ('0x1.a8d56a9f04f0dp+1', '0x1.1aa40cc998055p+2', '0x1.82fe57e5f7a37p+1', '0x1.bbc957e5cc993p+1', '0x1.5555555555556p-1'),
    ('alive', 'fgm-0.8', 'weibull', 0.0):
        ('0x1.7c367451dd4f4p-1', '0x1.c8bffc0f4a484p+0', '0x1.3674f69707a89p-3', '0x1.a7525914aafe2p-1', '0x1.5555555555555p-1'),
    ('alive', 'fgm-0.8', 'weibull', 0.4):
        ('0x1.c72aa06358054p-1', '0x1.d69df9f1bfdbcp+0', '0x1.c8ffd70988731p-2', '0x1.f6fb6497b77adp-1', '0x1.5555555555555p-1'),
    ('alive', 'fgm-0.8', 'weibull', 3.0):
        ('0x1.91d810dfa5356p+1', '0x1.ca8e9d2299403p+1', '0x1.81551e999b1ecp+1', '0x1.9942d0658b2b3p+1', '0x1.5555555555555p-1'),
    ('alive', 'clayton1', 'exp', 0.0):
        ('0x1.d9303fea2e07fp-3', '0x1.ff458a49a8a7cp-1', '0x1.1821392875543p-6', '0x1.5555555555556p-2', '0x1.5555555555555p-1'),
    ('alive', 'clayton1', 'exp', 0.4):
        ('0x1.57d74fed32e4dp-1', '0x1.853c84a9a4ddep+0', '0x1.ae8b1a37e0efep-2', '0x1.9067bfcfc1cbcp-1', '0x1.33897d1556303p-1'),
    ('alive', 'clayton1', 'exp', 3.0):
        ('0x1.aa1b317701fd0p+1', '0x1.127bb9c3b07cap+2', '0x1.833b38e13b6aep+1', '0x1.b9a26b7fea6ecp+1', '0x1.0339fe04d874dp-1'),
    ('alive', 'clayton1', 'weibull', 0.0):
        ('0x1.1923addd5d4f3p-1', '0x1.4c857c53607a3p+0', '0x1.e63eebf5173efp-4', '0x1.3732d759d4378p-1', '0x1.5555555555555p-1'),
    ('alive', 'clayton1', 'weibull', 0.4):
        ('0x1.7a2a0c8528845p-1', '0x1.6f85d5be2995bp+0', '0x1.b9b8c8e38d019p-2', '0x1.9eca68f6aefe8p-1', '0x1.478f86059eab2p-1'),
    ('alive', 'clayton1', 'weibull', 3.0):
        ('0x1.91c99bd7b7fb0p+1', '0x1.c2af39d8122c2p+1', '0x1.8162e4285b9a9p+1', '0x1.97caf4e531566p+1', '0x1.0104ea889e855p-1'),
    ('alive', 'clayton2.5', 'exp', 0.0):
        ('0x1.3b757ff176768p-3', '0x1.54d906dbc5e5fp-1', '0x1.7581a18b3f669p-7', '0x1.c71c71c71c71ep-3', '0x1.5555555555555p-1'),
    ('alive', 'clayton2.5', 'exp', 0.4):
        ('0x1.36c3acdfd4bcep-1', '0x1.312d68a535782p+0', '0x1.aa37104c71d9bp-2', '0x1.5c1c35741f52ap-1', '0x1.19edd0d516877p-1'),
    ('alive', 'clayton2.5', 'exp', 3.0):
        ('0x1.9d939d07cc6b9p+1', '0x1.ec44d2fa10b98p+1', '0x1.825e9e8f2767ap+1', '0x1.a71958a0819e2p+1', '0x1.0009101ff2626p-1'),
    ('alive', 'clayton2.5', 'weibull', 0.0):
        ('0x1.baf6d20cb3065p-2', '0x1.05f6004e42437p+0', '0x1.7f10b45abf167p-4', '0x1.ea5358037c300p-2', '0x1.5555555555555p-1'),
    ('alive', 'clayton2.5', 'weibull', 0.4):
        ('0x1.5164c336ff7eep-1', '0x1.318c21b229f5cp+0', '0x1.b1ab9da1c5212p-2', '0x1.6d85570bc675dp-1', '0x1.379c593c680b9p-1'),
    ('alive', 'clayton2.5', 'weibull', 3.0):
        ('0x1.8c74d2de17fdfp+1', '0x1.ac56ea5a6f1cap+1', '0x1.8102244c39606p+1', '0x1.903b97ac715dcp+1', '0x1.000084e881a19p-1'),
    ('two', 'product', 'exp', 0.0):
        ('0x1.62e42fefa3fccp-1', '0x1.7f7427b73e507p+1', '0x1.a431d5bcbb67ep-5', '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('two', 'product', 'exp', 0.4):
        ('0x1.17d87e5e3864cp+0', '0x1.b2a75aea7183bp+1', '0x1.ce1fd4513287bp-2', '0x1.6666666666666p+0', '0x1.0000000000000p+0'),
    ('two', 'product', 'exp', 3.0):
        ('0x1.d8b90bfbe8ff3p+1', '0x1.7fba13db9f282p+2', '0x1.8690c756f31dcp+1', '0x1.0000000000000p+2', '0x1.0000000000000p+0'),
    ('two', 'product', 'weibull', 0.0):
        ('0x1.0c41d1bb9ce4fp+0', '0x1.3d48e5989b445p+1', '0x1.cff7181dd9fc0p-3', '0x1.28f0605dc0629p+0', '0x1.0000000000000p+0'),
    ('two', 'product', 'weibull', 0.4):
        ('0x1.29d2fd6a061ccp+0', '0x1.459bdc6fcf074p+1', '0x1.ef214eb094189p-2', '0x1.4aa32a4c09838p+0', '0x1.0000000000000p+0'),
    ('two', 'product', 'weibull', 3.0):
        ('0x1.a49361bb263b9p+1', '0x1.0869cc5e6b320p+2', '0x1.82c9f7c45549cp+1', '0x1.b25161c408275p+1', '0x1.0000000000000p+0'),
    ('two', 'fgm1', 'exp', 0.0):
        ('0x1.3a5abf07b75abp+0', '0x1.d68bb38c22c62p+1', '0x1.032ba55655dc0p-2', '0x1.8000000000000p+0', '0x1.0000000000000p+0'),
    ('two', 'fgm1', 'exp', 0.4):
        ('0x1.29c3fe033f966p+0', '0x1.c24700553981dp+1', '0x1.d611bf1596259p-2', '0x1.77c95caeb55e8p+0', '0x1.0000000000000p+0'),
    ('two', 'fgm1', 'exp', 3.0):
        ('0x1.d9ce29d163315p+1', '0x1.80be62ac40dcap+2', '0x1.86accfd37809bp+1', '0x1.0089fbdb43a54p+2', '0x1.0000000000000p+0'),
    ('two', 'fgm1', 'weibull', 0.0):
        ('0x1.7787162271181p+0', '0x1.65e123a5dcbd0p+1', '0x1.289f7db3983d7p-1', '0x1.8c5e0073deb50p+0', '0x1.0000000000000p+0'),
    ('two', 'fgm1', 'weibull', 0.4):
        ('0x1.64e51b0a4fc30p+0', '0x1.5f1c38f5ded37p+1', '0x1.1f3c7be3afcd5p-1', '0x1.7d177f85a544cp+0', '0x1.0000000000000p+0'),
    ('two', 'fgm1', 'weibull', 3.0):
        ('0x1.a4b2a80686391p+1', '0x1.088306ac9ace7p+2', '0x1.82cd4b8f75289p+1', '0x1.b26efcb1b639ap+1', '0x1.0000000000000p+0'),
    ('two', 'fgm-0.8', 'exp', 0.0):
        ('0x1.91e22225dadc2p-2', '0x1.de14e2aab839dp+0', '0x1.d37aaab69d832p-6', '0x1.3333333333332p-1', '0x1.0000000000000p+0'),
    ('two', 'fgm-0.8', 'exp', 0.4):
        ('0x1.088f82ceee6eep+0', '0x1.a2cb8376e6b46p+1', '0x1.c873b1904f520p-2', '0x1.5696eb39453d4p+0', '0x1.0000000000000p+0'),
    ('two', 'fgm-0.8', 'exp', 3.0):
        ('0x1.d6b15b4d0aff5p+1', '0x1.7dc16f95c1be1p+2', '0x1.865de3c6cb4d3p+1', '0x1.fdf408725723ap+1', '0x1.0000000000000p+0'),
    ('two', 'fgm-0.8', 'weibull', 0.0):
        ('0x1.7ff2a1a909c2dp-1', '0x1.e08fd0e855477p+0', '0x1.48966b85256e2p-3', '0x1.b2caf3cb50413p-1', '0x1.0000000000000p+0'),
    ('two', 'fgm-0.8', 'weibull', 0.4):
        ('0x1.f1f69b1cb9583p-1', '0x1.1d4721c00cdf8p+1', '0x1.d369c133db5b1p-2', '0x1.1b82700709657p+0', '0x1.0000000000000p+0'),
    ('two', 'fgm-0.8', 'weibull', 3.0):
        ('0x1.a45df976d5646p+1', '0x1.083e55c0c3709p+2', '0x1.82c45623307eap+1', '0x1.b21eacd0e0b87p+1', '0x1.0000000000000p+0'),
    ('two', 'clayton1', 'exp', 0.0):
        ('0x1.ecc2caec521c6p-2', '0x1.31f3487a98928p+1', '0x1.18eebdfe14591p-5', '0x1.8000000000000p-1', '0x1.0000000000000p+0'),
    ('two', 'clayton1', 'exp', 0.4):
        ('0x1.d4a89be95c7fep-1', '0x1.6113a27aef72cp+1', '0x1.c0d2be8a809ccp-2', '0x1.2aef49aa3237bp+0', '0x1.0000000000000p+0'),
    ('two', 'clayton1', 'exp', 3.0):
        ('0x1.ca9d3951212f2p+1', '0x1.4b6ec35c5a82cp+2', '0x1.85fba9953abdbp+1', '0x1.e403bc8597fecp+1', '0x1.0000000000000p+0'),
    ('two', 'clayton1', 'weibull', 0.0):
        ('0x1.b0dd65f276b00p-1', '0x1.15d24524e78b1p+1', '0x1.6e20de3b84a78p-3', '0x1.ee7320a56272cp-1', '0x1.0000000000000p+0'),
    ('two', 'clayton1', 'weibull', 0.4):
        ('0x1.fab98f92efbbbp-1', '0x1.1e8b9d2d060bcp+1', '0x1.d66a6800aee41p-2', '0x1.1ee071e03f5bcp+0', '0x1.0000000000000p+0'),
    ('two', 'clayton1', 'weibull', 3.0):
        ('0x1.9fb34a964dcfbp+1', '0x1.e7d11c5c7b605p+1', '0x1.82b5396d0a32fp+1', '0x1.a7aae936ca5e5p+1', '0x1.0000000000000p+0'),
    ('two', 'clayton2.5', 'exp', 0.0):
        ('0x1.b0941e20b0987p-2', '0x1.45b9d02306013p+1', '0x1.bcbf82a8af0bap-6', '0x1.7b03531dec0d4p-1', '0x1.0000000000000p+0'),
    ('two', 'clayton2.5', 'exp', 0.4):
        ('0x1.a4f89b2ac75b7p-1', '0x1.6530ec5414afbp+1', '0x1.b94ecad429246p-2', '0x1.1aebac9978dc7p+0', '0x1.0000000000000p+0'),
    ('two', 'clayton2.5', 'exp', 3.0):
        ('0x1.aaff762ff0b41p+1', '0x1.0be63f7a6387dp+2', '0x1.83b689bd3b871p+1', '0x1.b881a89310f40p+1', '0x1.0000000000000p+0'),
    ('two', 'clayton2.5', 'weibull', 0.0):
        ('0x1.90efa1489be86p-1', '0x1.203f812982cd0p+1', '0x1.3f17bdc1fb914p-3', '0x1.e1469164f0a05p-1', '0x1.0000000000000p+0'),
    ('two', 'clayton2.5', 'weibull', 0.4):
        ('0x1.d9bf7a3eb5499p-1', '0x1.26517efce3b0dp+1', '0x1.cb7b3320514a7p-2', '0x1.170a4abc81fbep+0', '0x1.0000000000000p+0'),
    ('two', 'clayton2.5', 'weibull', 3.0):
        ('0x1.91b3a86aa6241p+1', '0x1.b98320fe5a7cdp+1', '0x1.81913ce6767adp+1', '0x1.960eaed55190fp+1', '0x1.0000000000000p+0'),
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "/".join(map(str, c)))
def test_predictor_outputs_are_pinned(case):
    assert outputs(*case) == PINNED[case]


# the levels of PINNED's first three entries
LEVELS = (0.5, 0.05, 0.95)


def _hexes(call):
    """The hex strings of an array result, or the name of the error class it raises."""
    try:
        return tuple(x.hex() for x in call().tolist())
    except SysPredictError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("key", CASES, ids=lambda c: "/".join(map(str, c)))
def test_stacked_levels_match_the_pinned_bits(key):
    """One quantile call on the stacked levels gives each level's own bits.

    The stack equals the levels solved one by one as arrays, and for the
    exponential marginal it equals PINNED, the scalar calls' bits.  The
    Weibull F-bar^-1 takes a power, which numpy computes with the C
    library's pow for a float64 scalar but with its SIMD loop for an array;
    the two differ in the last bit or two on some inputs, so there the
    stack is held to 2 units in the last place of PINNED.
    """
    p, cond = predictor_at(*key)
    stacked = _hexes(lambda: p.quantile(np.array(LEVELS), *cond))
    alone = [_hexes(lambda: p.quantile(np.array([w]), *cond)) for w in LEVELS]
    pinned = PINNED[key][:3]
    if isinstance(stacked, str):
        # a level that raises fails the whole stack, with that level's error
        assert stacked in alone and stacked in pinned
        return
    assert stacked == tuple(h for (h,) in alone)
    if key[2] == "exp":
        assert stacked == pinned
    else:
        ulps = np.array([float.fromhex(h) for h in stacked]).view(np.int64) \
            - np.array([float.fromhex(h) for h in pinned]).view(np.int64)
        assert np.all(np.abs(ulps) <= 2)


def _roots(p, w, cond):
    """The quantile solve's roots in z = F-bar(y), the marginal's inverse left out."""
    _, c = p._point(*cond)
    law, alpha = p._law(*c)
    atom = w >= alpha if p.mode == "weak" else None
    if np.ndim(w) == 0:
        return _solve_one(law, c[-1], w, atom)
    return _solve_increasing(law, np.broadcast_to(c[-1], np.shape(w)), w, skip=atom)


@pytest.mark.parametrize("key", CASES, ids=lambda c: "/".join(map(str, c)))
def test_scalar_and_stacked_solves_agree_in_z(key):
    """The one-entry solve and a stacked one find the same z, bit for bit.

    The scalar call's law takes Python floats and the stacked call's numpy
    arrays.  Both run the same count-pattern law: under product and FGM with
    + and x only, and under the Clayton pair with its kernel's powers taken
    by `np.power`, which gives a numpy scalar the array loop's bits.  So
    their roots agree bit for bit (the Weibull F-bar^-1 after them need not).
    """
    p, cond = predictor_at(*key)
    alone = tuple(float(_roots(p, w, cond)).hex() for w in LEVELS)
    stacked = tuple(np.broadcast_to(x, len(LEVELS)) for x in cond)
    assert _hexes(lambda: _roots(p, np.array(LEVELS), stacked)) == alone


def test_stacked_solve_matches_level_by_level(monkeypatch):
    """A stack of 4,000 points by 3 levels solves as each level does alone, bit for bit.

    Each evaluation of the folded law makes one Clayton kernel call per
    distinct read of the pair that touches z, whatever the size of the
    stack: no pattern axis, no chunks.  At theta = 1 the kernel's powers are
    exact, so the length of the array numpy's loop sees cannot move a bit
    either.  No copula value is range-checked on the way: c is F-bar.
    """
    copula = COPULAS["clayton1"]
    p = predictor("two", copula, MARGINALS["weibull"])
    t2 = np.linspace(0.0, 3.0, 4000)
    cond = (0.5 * t2, t2)
    kernel_calls = []  # pair-kernel calls made by each evaluation of the folded num
    fold, kernel, checks, calls = p._num.fold, distortion._clayton_pair, [], [0]

    def counting_fold(*c):
        at = fold(*c)

        def evaluate(z):
            before = calls[0]
            out = at(z)
            kernel_calls.append(calls[0] - before)
            return out

        return evaluate

    def counting_kernel(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(p._num, "fold", counting_fold)
    monkeypatch.setattr(distortion, "_clayton_pair", counting_kernel)
    monkeypatch.setattr(distortion, "_check_unit", lambda x: checks.append(x))
    reads = {min((*s, *m), (*s[::-1], *m[::-1]))
             for _, _, s, m, *_ in p._num._patterns if 2 in s}  # slot 2 is z
    alone = [_hexes(lambda: p.quantile(w, *cond)) for w in LEVELS]
    assert set(kernel_calls) == {len(reads)}
    kernel_calls.clear()
    stacked = _hexes(lambda: p.quantile(np.array(LEVELS)[:, None], *cond).ravel())
    assert set(kernel_calls) == {len(reads)}
    assert stacked == sum(alone, ())
    assert checks == []


def _result(call):
    """(shape, hex strings) of an array result, or (error class, message) where it raises."""
    try:
        out = call()
    except SysPredictError as exc:
        return type(exc).__name__, str(exc)
    return out.shape, tuple(x.hex() for x in out.ravel().tolist())


def _stacks(kind, t):
    """(levels, cond) of stacks at and around FLOAT_STACK = 16 entries near the case's time.

    Float points with array levels, array points (F-bar distinct at each,
    except where it saturates), and for two failures t1 a float with t2 an
    array; the weak levels reach past alpha into the atom.
    """
    levels = lambda n: np.linspace(0.03, 0.97, n)
    later = lambda n: t + np.linspace(0.0, 1.0, n)
    at = (lambda times: (0.5 * times, times)) if kind == "two" else (lambda times: (times,))
    stacks = [
        (levels(4), at(t)),  # (4,)
        (0.5, at(later(4))),  # (4,)
        (levels(5)[:, None], at(later(2))),  # (5, 2), as `curves` stacks its grid
        (levels(16), at(later(1)[:, None])),  # (1, 16)
        (levels(16)[None, :], at(t)),  # (1, 16)
        (levels(17), at(t)),  # (17,): one entry over
        (0.5, at(later(17))),  # (17,)
    ]
    if kind == "two":
        stacks += [(levels(5)[:, None], (0.5 * t, later(2))),  # (5, 2)
                   (levels(17), (0.5 * t, later(17)))]  # (17,)
    return stacks


@pytest.mark.parametrize("key", CASES, ids=lambda c: "/".join(map(str, c)))
def test_small_stacks_match_the_vector_form(monkeypatch, key):
    """A stack of at most FLOAT_STACK entries, solved entry by entry in Python floats,
    gives the vector form's bits and shape, or raises its error, message and all.

    The vector form is the same call with FLOAT_STACK = 0.  Under the Clayton
    pair both calls take it.
    """
    p, _ = predictor_at(*key)
    stacks = _stacks(key[0], key[3])
    small = [_result(lambda: p.quantile(w, *cond)) for w, cond in stacks]
    monkeypatch.setattr("syspredict.predictor.FLOAT_STACK", 0)
    assert small == [_result(lambda: p.quantile(w, *cond)) for w, cond in stacks]


def test_small_stack_errors_come_in_the_vector_forms_order(monkeypatch):
    """A degenerate den at any point, then alpha = 0 at an alive point, then a level that
    cannot be bracketed: the first that applies anywhere in the stack is raised."""
    strict = predictor("strict", COPULAS["fgm1"], MARGINALS["exp"])
    # observed: the first failure of a 2-of-3 system's gate; alpha underflows to 0 by t = 400
    alive = EarlyFailurePredictor(GATE, k_out_of_n(2, 3), COPULAS["fgm1"], MARGINALS["exp"],
                                  mode="alive")
    # 1 - 2^-53 cannot be bracketed at t = 2.8999999999999995; F-bar(800) underflows to 0
    t, top = 2.8999999999999995, 1.0 - 2.0 ** -53
    calls = [
        (strict, np.array([top, 0.5]), (t,)),
        (strict, np.array([[top], [0.5]]), (np.array([t, 800.0]),)),
        (strict, np.array([0.5, top]), (np.array([800.0, t]),)),
        (strict, 0.5, (np.array([0.4, t, 800.0]),)),
        (alive, np.array([0.5, top]), (np.array([0.4, 400.0]),)),
        (predictor("two", COPULAS["product"], MARGINALS["exp"]), np.array([[top], [0.5]]),
         (0.5, np.array([t, 800.0]))),
    ]
    small = [_result(lambda: p.quantile(w, *cond)) for p, w, cond in calls]
    assert [out[0] for out in small] == ["NotInvertible", "DegenerateDenominator",
                                         "DegenerateDenominator", "DegenerateDenominator",
                                         "ZeroAlpha", "DegenerateDenominator"]
    monkeypatch.setattr("syspredict.predictor.FLOAT_STACK", 0)
    assert small == [_result(lambda: p.quantile(w, *cond)) for p, w, cond in calls]


if __name__ == "__main__":
    print("PINNED = {")
    for case in CASES:
        print(f"    {case!r}:\n        {outputs(*case)!r},")
    print("}")
