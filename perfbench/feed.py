"""Deterministic synthetic NVD-1.1 feed over the synthetic device catalog.

``synth_feed(n_per_product, seed)`` writes ``n_per_product`` CVE records for
every product in ``iotgraph.synth.CATALOG``. Each record names its product,
so a store search for that device finds it. Records vary the attack vector,
the CIA impacts, sniffing wording (radio-range preconditions), effect wording
for every exploit class (root, device control, command injection, event
access, wifi credentials, denial of service) and mechanism-only wording that
the classifier settles from the CVSS subscores. The same arguments always
give the same bytes.
"""

from __future__ import annotations

import json
import random

from iotgraph.synth import CATALOG

# Wording that the bundled keyword tables classify into each effect. None
# of it contains a catalog token, so a record only matches its own product.
_EFFECT_WORDING = {
    "root": (
        "execute arbitrary code with root privileges",
        "execute arbitrary code on the unit",
        "run arbitrary commands through the maintenance shell",
    ),
    "deviceControl": (
        "take control of the unit",
        "gain full control of the appliance",
        "take over the unit",
    ),
    "commandInjection": (
        "inject commands into the pairing channel",
        "perform command injection through the setup page",
        "execute commands as the service account",
    ),
    "eventAccess": (
        "obtain status events from the unit",
        "spoof status events",
        "access the video stream of the unit",
    ),
    "wifiAccess": (
        "recover the wifi password stored on the unit",
        "read the stored network credentials",
        "obtain the wi-fi credentials in cleartext",
    ),
    "dos": (
        "cause a denial of service",
        "crash the firmware",
        "force the unit into a reboot loop",
    ),
}

# No effect keyword: the classifier falls back on mechanism plus CIA levels.
_MECHANISM_WORDING = (
    "trigger a buffer overflow in the web server",
    "trigger a heap overflow in the firmware updater",
    "trigger a use after free in the pairing service",
)

_CLASSES = (*_EFFECT_WORDING, "mechanism")

# (attack vector, wording variants). Sniffing and non-sniffing adjacency are
# separate entries because the wording decides the precondition.
_REACH = (
    ("NETWORK", ("Remote attackers can", "An unauthenticated remote attacker can")),
    (
        "ADJACENT_NETWORK",
        (
            "An attacker within radio range can sniff the pairing traffic and",
            "An attacker who can intercept the wireless traffic can",
        ),
    ),
    (
        "ADJACENT_NETWORK",
        (
            "An attacker on the same local network can",
            "A neighbouring attacker with a foothold on the local segment can",
        ),
    ),
    ("LOCAL", ("A local user with a shell can", "A logged-in local user can")),
    ("NETWORK", ("Remote attackers can", "An unauthenticated remote attacker can")),
)

# (confidentiality, integrity, availability). Mechanism-only records take
# theirs in turn, since the levels decide their class.
_CIA = (
    ("HIGH", "HIGH", "HIGH"),
    ("HIGH", "NONE", "NONE"),
    ("NONE", "HIGH", "NONE"),
    ("NONE", "NONE", "HIGH"),
    ("HIGH", "LOW", "NONE"),
    ("LOW", "HIGH", "LOW"),
)


def feed_items(n_per_product: int, seed: int) -> list[dict]:
    """The CVE_Items of the synthetic feed, in catalog order.

    Record ``j`` takes its class from ``j % 7`` and its reach from ``j % 5``,
    so every (class, reach) pair occurs and the attack structure a home gets
    from the feed does not depend on the seed; the dense-evidence cost would
    otherwise swing several-fold from one seed to the next. The seed draws
    everything else: wording variants, CVE numbers, versions, scores, and the
    CIA levels of keyworded records, which the classifier does not read.
    """

    rng = random.Random(seed)
    base = rng.randrange(10000, 90000)
    items = []
    for j in range(n_per_product * len(CATALOG)):
        product = CATALOG[j // n_per_product][0]
        kind = _CLASSES[j % len(_CLASSES)]
        vector, reaches = _REACH[j % len(_REACH)]
        if kind == "mechanism":
            outcome = rng.choice(_MECHANISM_WORDING)
            conf, integ, avail = _CIA[(j // len(_CLASSES)) % len(_CIA)]
        else:
            outcome = rng.choice(_EFFECT_WORDING[kind])
            conf, integ, avail = rng.choice(_CIA)
        version = f"{rng.randint(1, 9)}.{rng.randint(0, 40)}.{rng.randint(0, 9)}"
        description = (
            f"{product} firmware {version} mishandles crafted requests. "
            f"{rng.choice(reaches)} {outcome}."
        )
        items.append(
            {
                "cve": {
                    "CVE_data_meta": {"ID": f"CVE-{2016 + j % 8}-{base + j}"},
                    "description": {"description_data": [{"lang": "en", "value": description}]},
                },
                "impact": {
                    "baseMetricV3": {
                        "cvssV3": {
                            "attackVector": vector,
                            "confidentialityImpact": conf,
                            "integrityImpact": integ,
                            "availabilityImpact": avail,
                        },
                        "impactScore": round(rng.uniform(2.5, 6.0), 1),
                        "exploitabilityScore": round(rng.uniform(0.5, 3.9), 1),
                    }
                },
            }
        )
    return items


def synth_feed(n_per_product: int, seed: int) -> str:
    """Feed document text in NVD 1.1 layout."""

    doc = {
        "CVE_data_type": "CVE",
        "CVE_data_format": "MITRE",
        "CVE_data_version": "4.0",
        "CVE_Items": feed_items(n_per_product, seed),
    }
    return json.dumps(doc, indent=1) + "\n"
