//! One command regenerates the paper: every table, figure and the
//! ablation report, by id, over one shared [`Runner`].

use std::io::{ErrorKind, Write};

use crate::runner::Runner;
use crate::{ablation, figures, tables};

/// Renders one artifact from the shared runner.
pub type Generator = fn(&mut Runner) -> String;

/// Every artifact `inspect -- figures` prints, by id, in EXPERIMENTS.md
/// order.
const ARTIFACTS: [(&str, Generator); 13] = [
    ("table1", |_| tables::table1()),
    ("table2", |r| tables::table2(r.profile().scale)),
    ("table3", |_| tables::table3()),
    ("table4", |_| tables::table4()),
    ("table5", |_| tables::table5()),
    ("fig5", |r| figures::fig5(r.profile())),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("ablation", ablation::ablation),
];

/// Resolves command-line ids to artifacts, in the order given; no ids
/// selects all of them. An unknown id is an error naming the valid ones.
pub fn select(ids: &[String]) -> Result<Vec<(&'static str, Generator)>, String> {
    if ids.is_empty() {
        return Ok(ARTIFACTS.to_vec());
    }
    let valid = || ARTIFACTS.map(|(id, _)| id).join(" ");
    let find = |id: &String| ARTIFACTS.iter().find(|(name, _)| name == id).copied();
    ids.iter()
        .map(|id| find(id).ok_or_else(|| format!("unknown id {id:?}; valid ids: {}", valid())))
        .collect()
}

/// Renders each artifact in turn and writes it, plus a newline, to
/// `out`. A reader that goes away (`BrokenPipe`, e.g. `| head`) ends the
/// output cleanly: nothing more is rendered and no error is returned.
pub fn print(
    artifacts: &[(&str, Generator)],
    runner: &mut Runner,
    out: &mut impl Write,
) -> std::io::Result<()> {
    for (_, generate) in artifacts {
        match writeln!(out, "{}", generate(runner)).and_then(|()| out.flush()) {
            Err(e) if e.kind() == ErrorKind::BrokenPipe => break,
            written => written?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;

    fn ids(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        select(&args).map(|arts| arts.into_iter().map(|(id, _)| id).collect())
    }

    #[test]
    fn no_ids_selects_everything_in_experiments_order() {
        assert_eq!(
            ids(&[]).unwrap(),
            [
                "table1", "table2", "table3", "table4", "table5", "fig5", "fig6", "fig7", "fig8",
                "fig9", "fig10", "fig11", "ablation"
            ]
        );
        assert_eq!(ids(&["fig7", "table1"]).unwrap(), ["fig7", "table1"]);
    }

    #[test]
    fn unknown_id_names_the_valid_ones() {
        let err = ids(&["table1", "fig12"]).unwrap_err();
        assert!(err.contains("\"fig12\""), "{err}");
        for (id, _) in ARTIFACTS {
            assert!(err.contains(id), "{err} omits {id}");
        }
    }

    /// A reader that has gone away: every write fails with `BrokenPipe`.
    #[derive(Default)]
    struct ClosedPipe {
        writes: usize,
    }

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            Err(ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn a_closed_reader_ends_output_cleanly() {
        let mut runner = Runner::new(Profile::small());
        let tables = select(&["table1".into(), "table3".into()]).unwrap();
        let mut closed = ClosedPipe::default();
        print(&tables, &mut runner, &mut closed).unwrap();
        assert_eq!(closed.writes, 1, "output goes on after the reader left");
        let mut buf = Vec::new();
        print(&tables, &mut runner, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.starts_with("Table 1.") && text.contains("\n\nTable 3."),
            "{text}"
        );
    }
}
