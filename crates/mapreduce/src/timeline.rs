//! ASCII Gantt rendering of phase schedules — makes the discrete-event
//! simulator's decisions visible (waves, stragglers).

use crate::scheduler::PhaseSchedule;
use std::fmt::Write;

/// Renders `schedule` as one row per slot, time flowing left to right across
/// `width` columns. Task cells show the task index modulo 10; idle time is
/// `.`.
///
/// Returns an empty string for an empty schedule.
pub fn render_timeline(schedule: &PhaseSchedule, width: usize) -> String {
    assert!(width >= 10, "need at least 10 columns");
    if schedule.timeline.is_empty() {
        return String::new();
    }
    let slots = schedule.timeline.iter().map(|t| t.slot).max().unwrap_or(0) + 1;
    let span = (schedule.end - schedule.start).max(1e-9);
    let col_of =
        |t: f64| -> usize { (((t - schedule.start) / span) * (width - 1) as f64).round() as usize };

    let mut rows = vec![vec!['.'; width]; slots];
    for task in &schedule.timeline {
        let (c0, c1) = (col_of(task.start), col_of(task.end).max(col_of(task.start)));
        let ch = char::from_digit((task.task % 10) as u32, 10).unwrap_or('?');
        for cell in rows[task.slot].iter_mut().take(c1 + 1).skip(c0) {
            *cell = ch;
        }
    }

    let mut out = String::new();
    for (slot, row) in rows.iter().enumerate() {
        let _ = writeln!(out, "slot {slot:>3} |{}|", row.iter().collect::<String>());
    }
    // Axis labels carry the phase's absolute start and end timestamps:
    // reduce phases start where the map phase ended, so labelling the right
    // edge with the *span* would misread as an end time.
    let left = format!("{:.1}s", schedule.start);
    let right = format!("{:.1}s", schedule.end);
    let pad = (width + 2).saturating_sub(left.len() + right.len());
    let _ = writeln!(out, "          {left}{}{right}", " ".repeat(pad));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::schedule_phase;

    #[test]
    fn empty_schedule_renders_empty() {
        let s = schedule_phase(&[], 4, 0.0);
        assert!(render_timeline(&s, 40).is_empty());
    }

    #[test]
    fn rows_match_slots_and_waves_are_visible() {
        // 4 unit tasks on 2 slots: 2 waves
        let s = schedule_phase(&[1.0; 4], 2, 0.0);
        let rendered = render_timeline(&s, 40);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3, "2 slot rows + axis");
        assert!(lines[0].starts_with("slot   0"));
        // each slot row contains two distinct task digits
        let digits: std::collections::HashSet<char> =
            lines[0].chars().filter(char::is_ascii_digit).collect();
        assert!(digits.len() >= 2, "{rendered}");
    }

    #[test]
    fn axis_shows_span() {
        let s = schedule_phase(&[2.0, 2.0], 2, 0.0);
        let rendered = render_timeline(&s, 40);
        assert!(rendered.contains("0.0s"), "{rendered}");
        assert!(rendered.contains("2.0s"), "{rendered}");
    }

    #[test]
    fn axis_labels_absolute_start_and_end_for_offset_phase() {
        // A reduce-style phase starting at t=100: the axis must read
        // 100.0s..102.0s, not 0s..2.0s (the span).
        let s = schedule_phase(&[1.0, 2.0], 2, 100.0);
        let rendered = render_timeline(&s, 40);
        let axis = rendered.lines().last().unwrap_or("");
        assert!(axis.contains("100.0s"), "{rendered}");
        assert!(axis.contains("102.0s"), "{rendered}");
        assert!(
            axis.trim_start().starts_with("100.0s"),
            "left edge must be the phase start, not 0: {rendered}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 10 columns")]
    fn tiny_width_rejected() {
        let s = schedule_phase(&[1.0], 1, 0.0);
        let _ = render_timeline(&s, 3);
    }
}
