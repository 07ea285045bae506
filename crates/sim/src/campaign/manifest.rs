//! The campaign's checkpoint manifest: the checksummed JSONL format of
//! [`ttdc_util::checkpoint`], shared with every other checkpointed job.
//! The tests below pin its durability contract on campaign records.

pub use ttdc_util::checkpoint::{
    f64_from_bits_json, f64_to_bits_json, Manifest, ManifestError, ManifestRecord,
};

#[cfg(test)]
use ttdc_util::checkpoint::{seal, unseal};

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ttdc-manifest-{}-{name}", std::process::id()))
    }

    fn sample() -> Manifest {
        let mut m = Manifest::new("campaign", 0xABCD, json!({"reps": 4}));
        m.put("s0", json!({"point": 0, "ok": true}));
        m.put("s1", json!({"point": 1, "metrics": vec![1.5f64, 2.5]}));
        m
    }

    #[test]
    fn round_trips_through_disk() {
        let p = tmp("roundtrip");
        let m = sample();
        m.save(&p).unwrap();
        let back = Manifest::load(&p, "campaign", Some(0xABCD)).unwrap();
        assert_eq!(back.records(), m.records());
        assert_eq!(back.fingerprint, 0xABCD);
        assert_eq!(back.header, json!({"reps": 4}));
        assert_eq!(back.torn_tail_dropped, 0);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn rejects_wrong_kind_and_fingerprint() {
        let p = tmp("mismatch");
        sample().save(&p).unwrap();
        assert!(matches!(
            Manifest::load(&p, "exp_all", None),
            Err(ManifestError::KindMismatch { .. })
        ));
        assert!(matches!(
            Manifest::load(&p, "campaign", Some(0x1234)),
            Err(ManifestError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn rejects_foreign_schema_version() {
        let p = tmp("schema");
        let text = sample().to_jsonl();
        let bumped = text.replacen("\"schema_version\":1", "\"schema_version\":99", 1);
        // Re-seal the header so only the version — not the checksum — is wrong.
        let mut lines: Vec<&str> = bumped.lines().collect();
        assert!(
            super::unseal(lines[0]).is_err(),
            "tampered header must fail checksum"
        );
        let reparsed = serde_json::from_str(lines[0]).unwrap();
        let mut map = reparsed.as_object().unwrap().clone();
        map.remove("checksum");
        let resealed = super::seal(map);
        lines[0] = &resealed;
        std::fs::write(&p, lines.join("\n")).unwrap();
        assert!(matches!(
            Manifest::load(&p, "campaign", None),
            Err(ManifestError::SchemaMismatch { found: 99 })
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn drops_a_torn_tail_but_fails_on_interior_corruption() {
        let p = tmp("torn");
        let mut text = sample().to_jsonl();
        text.push_str("{\"id\":\"s2\",\"payload\":{},\"checksum\":\"dead");
        std::fs::write(&p, &text).unwrap();
        let m = Manifest::load(&p, "campaign", None).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.torn_tail_dropped, 1);

        // The same bad bytes *between* two good records are corruption.
        let good = sample().to_jsonl();
        let mut lines: Vec<&str> = good.lines().collect();
        lines.insert(2, "{\"id\":\"sX\",\"broken");
        std::fs::write(&p, lines.join("\n")).unwrap();
        assert!(matches!(
            Manifest::load(&p, "campaign", None),
            Err(ManifestError::Corrupt { line: 3, .. })
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn detects_bit_flips_via_checksum() {
        let p = tmp("bitflip");
        let text = sample().to_jsonl();
        let flipped = text.replacen("\"point\":1", "\"point\":2", 1);
        assert_ne!(text, flipped, "fixture must actually flip a record");
        std::fs::write(&p, &flipped).unwrap();
        // s1 is the last record → torn-tail policy drops it.
        let m = Manifest::load(&p, "campaign", None).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.torn_tail_dropped, 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn put_replaces_by_id() {
        let mut m = sample();
        m.put("s0", json!({"point": 9}));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("s0"), Some(&json!({"point": 9})));
    }

    #[test]
    fn f64_bits_round_trip_exactly() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1.0 / 3.0, f64::NAN] {
            let back = f64_from_bits_json(&f64_to_bits_json(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert_eq!(f64_from_bits_json(&json!(1.5)), None);
    }
}
