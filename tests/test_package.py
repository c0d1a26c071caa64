import odnsparse
from odnsparse import report, spectra


def test_every_public_name_resolves_once():
    names = odnsparse.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(odnsparse, name) for name in names)


def test_sparsifier_norm_check_is_gone():
    """||L - L_hat|| <= eps * rho(L) follows from the sparsifier inequality,
    so no check, record or serializer of it is left."""
    for owner, name in ((odnsparse, "sparsifier_norm_check"),
                        (odnsparse, "SparsifierNormCheck"),
                        (spectra, "sparsifier_norm_check"),
                        (spectra, "SparsifierNormCheck"),
                        (report, "norm_check_to_dict")):
        assert not hasattr(owner, name), name
        assert name not in odnsparse.__all__
