//! Process CPU time, peak memory and filesystem type from `/proc`.

use std::path::Path;

/// Clock ticks per second behind the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 in the Linux ABI).
pub const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) may hold spaces and parentheses, so the
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) in MB (10^6 bytes) from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// CPU seconds `pid` has used so far, including its exited threads.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    parse_stat_cpu_seconds(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set of `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    parse_status_peak_rss_mb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// The filesystem type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo` (the longest mount point that prefixes it).
pub fn parse_mountinfo_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split_whitespace().nth(4)?.replace("\\040", " ");
            let fs_type = right.split_whitespace().next()?;
            path.starts_with(&mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs_type)| fs_type)
}

/// The filesystem type holding `path` (which must exist).
pub fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    parse_mountinfo_fs_type(
        &std::fs::read_to_string("/proc/self/mountinfo").ok()?,
        &path,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_fields_after_the_command_name() {
        let stat = "4242 (slum (serve) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    250 37 0 0 20 0 5 0 1000 12345 678 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(2.87));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
    }

    #[test]
    fn status_peak_rss_reads_vmhwm() {
        let status =
            "Name:\tslumbench\nVmPeak:\t  900000 kB\nVmHWM:\t  731432 kB\nVmRSS:\t 1000 kB\n";
        let mb = parse_status_peak_rss_mb(status).expect("VmHWM present");
        assert!((mb - 748.986368).abs() < 1e-9);
        assert_eq!(parse_status_peak_rss_mb("VmRSS: 1 kB\n"), None);
    }

    #[test]
    fn mountinfo_picks_the_longest_mount_prefix() {
        let info = "22 1 252:1 / / rw,relatime shared:1 - ext4 /dev/vda rw\n\
                    25 22 0:21 / /dev/shm rw,nosuid shared:4 - tmpfs tmpfs rw\n\
                    26 22 0:22 / /mnt/my\\040disk rw - xfs /dev/vdb rw\n";
        assert_eq!(
            parse_mountinfo_fs_type(info, Path::new("/dev/shm/x")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            parse_mountinfo_fs_type(info, Path::new("/home/user/repo")).as_deref(),
            Some("ext4")
        );
        assert_eq!(
            parse_mountinfo_fs_type(info, Path::new("/mnt/my disk/a")).as_deref(),
            Some("xfs")
        );
    }
}
