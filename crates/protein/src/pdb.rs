//! Minimal PDB-format output (and a matching reader) for loop structures.
//!
//! The examples and the Figure 6 harness write best decoys and natives out
//! as PDB `ATOM` records so they can be inspected in any molecular viewer.
//! Only the subset of the format needed for backbone models is implemented.

use crate::amino::AminoAcid;
use crate::backbone::LoopStructure;
use lms_geometry::Vec3;
use std::fmt::Write as _;

/// Render a loop structure as PDB `ATOM` records.
///
/// * `chain` — chain identifier character.
/// * `first_res` — residue number assigned to the first loop residue.
pub fn to_pdb(
    structure: &LoopStructure,
    sequence: &[AminoAcid],
    chain: char,
    first_res: usize,
) -> String {
    assert_eq!(
        structure.n_residues(),
        sequence.len(),
        "structure and sequence must have the same number of residues"
    );
    let mut out = String::new();
    let mut serial = 1usize;
    for (i, (res, aa)) in structure.residues.iter().zip(sequence.iter()).enumerate() {
        let resnum = first_res + i;
        let atoms: Vec<(&str, Vec3)> = {
            let mut v = vec![("N", res.n), ("CA", res.ca), ("C", res.c), ("O", res.o)];
            if let Some(cen) = res.centroid {
                v.push(("CB", cen));
            }
            v
        };
        for (name, pos) in atoms {
            writeln!(
                out,
                "ATOM  {serial:5} {name:<4} {res_name:>3} {chain}{resnum:4}    {x:8.3}{y:8.3}{z:8.3}{occ:6.2}{b:6.2}          {elem:>2}",
                serial = serial,
                name = name,
                res_name = aa.three_letter(),
                chain = chain,
                resnum = resnum,
                x = pos.x,
                y = pos.y,
                z = pos.z,
                occ = 1.0,
                b = 0.0,
                elem = &name[..1],
            )
            .expect("writing to a String cannot fail");
            serial += 1;
        }
    }
    out.push_str("TER\nEND\n");
    out
}

/// A single parsed `ATOM` record.
#[derive(Debug, Clone, PartialEq)]
pub struct PdbAtom {
    /// Atom name (e.g. `"CA"`).
    pub name: String,
    /// Residue three-letter code.
    pub residue: String,
    /// Residue sequence number.
    pub res_seq: usize,
    /// Position.
    pub position: Vec3,
}

/// Parse the `ATOM` records out of PDB-formatted text.  Lines that are not
/// `ATOM` records are ignored; malformed `ATOM` lines — too short, a column
/// field split inside a multi-byte character, an unparsable number or a
/// non-finite coordinate — produce an error.
pub fn parse_pdb_atoms(text: &str) -> Result<Vec<PdbAtom>, String> {
    let mut atoms = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if !line.starts_with("ATOM") {
            continue;
        }
        if line.len() < 54 {
            return Err(format!("line {}: ATOM record too short", lineno + 1));
        }
        // PDB fields are fixed byte columns; a non-ASCII byte can put a
        // column boundary inside a character, which is malformed input.
        let field = |cols: std::ops::Range<usize>, what: &str| -> Result<&str, String> {
            line.get(cols)
                .map(str::trim)
                .ok_or_else(|| format!("line {}: {what} splits a multi-byte character", lineno + 1))
        };
        let parse_f = |cols: std::ops::Range<usize>, what: &str| -> Result<f64, String> {
            let v = field(cols, what)?
                .parse::<f64>()
                .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 1))?;
            if v.is_finite() {
                Ok(v)
            } else {
                Err(format!("line {}: non-finite {what}: {v}", lineno + 1))
            }
        };
        let name = field(12..16, "atom name")?.to_string();
        let residue = field(17..20, "residue name")?.to_string();
        let res_seq = field(22..26, "residue number")?
            .parse::<usize>()
            .map_err(|e| format!("line {}: bad residue number: {e}", lineno + 1))?;
        let x = parse_f(30..38, "x coordinate")?;
        let y = parse_f(38..46, "y coordinate")?;
        let z = parse_f(46..54, "z coordinate")?;
        atoms.push(PdbAtom {
            name,
            residue,
            res_seq,
            position: Vec3::new(x, y, z),
        });
    }
    Ok(atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::{AnchorFrame, LoopBuilder, LoopFrame};
    use crate::torsions::Torsions;
    use lms_geometry::deg_to_rad;

    fn sample_structure() -> (LoopStructure, Vec<AminoAcid>) {
        let builder = LoopBuilder::default();
        let sequence = vec![AminoAcid::Ala, AminoAcid::Gly, AminoAcid::Trp];
        let torsions = Torsions::from_pairs(&[
            (deg_to_rad(-63.0), deg_to_rad(-43.0)),
            (deg_to_rad(-120.0), deg_to_rad(135.0)),
            (deg_to_rad(-75.0), deg_to_rad(150.0)),
        ]);
        let frame = LoopFrame {
            n_anchor: AnchorFrame::new(
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(1.458, 0.0, 0.0),
                Vec3::new(2.0, 1.4, 0.0),
            ),
            n_anchor_psi: deg_to_rad(120.0),
            c_anchor: AnchorFrame::new(Vec3::X, Vec3::Y, Vec3::Z),
            c_anchor_phi: deg_to_rad(-65.0),
        };
        (builder.build(&frame, &sequence, &torsions), sequence)
    }

    #[test]
    fn pdb_roundtrip_preserves_backbone_coordinates() {
        let (s, seq) = sample_structure();
        let text = to_pdb(&s, &seq, 'A', 40);
        let atoms = parse_pdb_atoms(&text).unwrap();
        // 4 backbone atoms per residue + CB for non-Gly (2 of 3 residues).
        assert_eq!(atoms.len(), 3 * 4 + 2);
        // First residue's CA matches (to PDB's 3-decimal precision).
        let ca = atoms
            .iter()
            .find(|a| a.name == "CA" && a.res_seq == 40)
            .unwrap();
        assert!(ca.position.max_abs_diff(s.residues[0].ca) < 1e-3);
        assert_eq!(ca.residue, "ALA");
        // Glycine residue has no CB record.
        assert!(!atoms.iter().any(|a| a.name == "CB" && a.res_seq == 41));
        // Residue numbering starts where requested.
        assert_eq!(atoms.iter().map(|a| a.res_seq).min().unwrap(), 40);
        assert_eq!(atoms.iter().map(|a| a.res_seq).max().unwrap(), 42);
    }

    #[test]
    fn pdb_output_has_ter_and_end() {
        let (s, seq) = sample_structure();
        let text = to_pdb(&s, &seq, 'B', 1);
        assert!(text.contains("TER"));
        assert!(text.trim_end().ends_with("END"));
        assert!(text.contains(" B"), "chain identifier present");
    }

    #[test]
    fn parser_ignores_non_atom_lines_and_flags_bad_ones() {
        let good = "HEADER test\nATOM      1 N    ALA A  40       1.000   2.000   3.000  1.00  0.00           N\nEND\n";
        let atoms = parse_pdb_atoms(good).unwrap();
        assert_eq!(atoms.len(), 1);
        assert_eq!(atoms[0].position, Vec3::new(1.0, 2.0, 3.0));

        let truncated = "ATOM      1 N    ALA A  40       1.000\n";
        assert!(parse_pdb_atoms(truncated).is_err());

        let bad_number =
            "ATOM      1 N    ALA A  4x       1.000   2.000   3.000  1.00  0.00           N\n";
        assert!(parse_pdb_atoms(bad_number).is_err());
    }

    #[test]
    fn parser_rejects_non_finite_coordinates() {
        for bad in ["     NaN", "     inf", "    -inf"] {
            let line = format!(
                "ATOM      1 N    ALA A  40       1.000{bad}   3.000  1.00  0.00           N\n"
            );
            let err = parse_pdb_atoms(&line).unwrap_err();
            assert!(err.contains("non-finite y coordinate"), "{bad}: {err}");
        }
    }

    #[test]
    fn parser_rejects_a_field_split_inside_a_multibyte_character() {
        // `é` is two bytes, so byte 12 (the atom-name column start) falls
        // inside it.
        let line =
            "ATOM      1éN   ALA A  40       1.000   2.000   3.000  1.00  0.00           N\n";
        let err = parse_pdb_atoms(line).unwrap_err();
        assert!(err.contains("atom name"), "{err}");
    }

    #[test]
    #[should_panic]
    fn mismatched_sequence_panics() {
        let (s, _) = sample_structure();
        let _ = to_pdb(&s, &[AminoAcid::Ala], 'A', 1);
    }
}
