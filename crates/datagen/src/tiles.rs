//! Shared structural tiles: bitcell arrays, column periphery, row
//! decoders and clock trees. Used by both the six hand-written design
//! archetypes (`designs`) and the composition-grammar enumerator
//! (`grammar`/`enumerate`).

use crate::builder::{BuildDesignError, DesignBuilder};

/// Bitcell pitch in microns (x = column direction, y = row direction),
/// typical of a 28 nm 6T cell.
pub const CELL_W: f64 = 0.6;
/// Row pitch in microns.
pub const CELL_H: f64 = 0.3;

/// Places a `rows × cols` 6T bitcell array with prefix `p` at origin
/// `(x0, y0)`. Creates nets `"{p}BL{c}"`, `"{p}BLB{c}"`, `"{p}WL{r}"`.
pub fn bitcell_array_6t(
    b: &mut DesignBuilder,
    p: &str,
    rows: usize,
    cols: usize,
    x0: f64,
    y0: f64,
) -> Result<(), BuildDesignError> {
    for r in 0..rows {
        for c in 0..cols {
            let bl = format!("{p}BL{c}");
            let blb = format!("{p}BLB{c}");
            let wl = format!("{p}WL{r}");
            b.instance(
                &format!("X{p}bit_r{r}_c{c}"),
                "SRAM6T",
                &[&bl, &blb, &wl, "VDD", "VSS"],
                x0 + c as f64 * CELL_W,
                y0 + r as f64 * CELL_H,
            )?;
        }
    }
    Ok(())
}

/// Places a `rows × cols` 8T bitcell array with separate read port nets
/// `"{p}RBL{c}"` / `"{p}RWL{r}"` and write nets `"{p}WBL*"` / `"{p}WWL{r}"`.
pub fn bitcell_array_8t(
    b: &mut DesignBuilder,
    p: &str,
    rows: usize,
    cols: usize,
    x0: f64,
    y0: f64,
) -> Result<(), BuildDesignError> {
    for r in 0..rows {
        for c in 0..cols {
            let wbl = format!("{p}WBL{c}");
            let wblb = format!("{p}WBLB{c}");
            let wwl = format!("{p}WWL{r}");
            let rbl = format!("{p}RBL{c}");
            let rwl = format!("{p}RWL{r}");
            b.instance(
                &format!("X{p}bit8_r{r}_c{c}"),
                "SRAM8T",
                &[&wbl, &wblb, &wwl, &rbl, &rwl, "VDD", "VSS"],
                x0 + c as f64 * (CELL_W * 1.3),
                y0 + r as f64 * (CELL_H * 1.2),
            )?;
        }
    }
    Ok(())
}

/// Column periphery for a 6T array: precharge + write driver per column,
/// 4:1 column muxing into sense amplifiers.
///
/// Consumes nets `"{p}BL{c}"`; produces data outputs `"{p}SA{g}"`.
pub fn column_periphery(
    b: &mut DesignBuilder,
    p: &str,
    cols: usize,
    x0: f64,
    y_arr_top: f64,
) -> Result<(), BuildDesignError> {
    let pcb = format!("{p}PCB");
    let wen = format!("{p}WEN");
    let sae = format!("{p}SAE");
    for c in 0..cols {
        let bl = format!("{p}BL{c}");
        let blb = format!("{p}BLB{c}");
        let x = x0 + c as f64 * CELL_W;
        b.instance(
            &format!("X{p}pch{c}"),
            "PRECH",
            &[&bl, &blb, &pcb, "VDD"],
            x,
            y_arr_top + 0.5,
        )?;
        b.instance(
            &format!("X{p}wd{c}"),
            "WRDRV",
            &[&format!("{p}D{c}"), &wen, &bl, &blb, "VDD", "VSS"],
            x,
            y_arr_top + 1.2,
        )?;
    }
    // 2-level column mux into one SA per group of 4 columns.
    let groups = cols.div_ceil(4).max(1);
    for g in 0..groups {
        let c0 = 4 * g;
        let pick = |i: usize| format!("{p}BL{}", (c0 + i).min(cols - 1));
        let m0 = format!("{p}mx{g}_0");
        let m1 = format!("{p}mx{g}_1");
        let xg = x0 + (c0 as f64 + 1.5) * CELL_W;
        b.instance(
            &format!("X{p}cm{g}a"),
            "COLMUX",
            &[&pick(0), &pick(1), &format!("{p}CSEL0"), &m0, "VDD", "VSS"],
            xg,
            y_arr_top + 2.0,
        )?;
        b.instance(
            &format!("X{p}cm{g}b"),
            "COLMUX",
            &[&pick(2), &pick(3), &format!("{p}CSEL0"), &m1, "VDD", "VSS"],
            xg + 0.6,
            y_arr_top + 2.0,
        )?;
        b.instance(
            &format!("X{p}cm{g}c"),
            "COLMUX",
            &[
                &m0,
                &m1,
                &format!("{p}CSEL1"),
                &format!("{p}sabl{g}"),
                "VDD",
                "VSS",
            ],
            xg + 0.3,
            y_arr_top + 2.6,
        )?;
        b.instance(
            &format!("X{p}sa{g}"),
            "SENSEAMP",
            &[
                &format!("{p}sabl{g}"),
                &format!("{p}BLB{}", c0.min(cols - 1)),
                &sae,
                &format!("{p}SA{g}"),
                &format!("{p}SAB{g}"),
                "VDD",
                "VSS",
            ],
            xg + 0.3,
            y_arr_top + 3.4,
        )?;
    }
    Ok(())
}

/// Row decoder: per-row 3-input AND of predecoded lines plus a wordline
/// driver. Produces/drives nets `"{p}WL{r}"` from address nets
/// `"{p}A{i}"`.
pub fn row_decoder(
    b: &mut DesignBuilder,
    p: &str,
    rows: usize,
    wl_prefix: &str,
    x_dec: f64,
    y0: f64,
) -> Result<(), BuildDesignError> {
    let abits = rows.next_power_of_two().trailing_zeros().max(1) as usize;
    // Address inverters for complement lines.
    for i in 0..abits {
        b.instance(
            &format!("X{p}ainv{i}"),
            "INV",
            &[&format!("{p}A{i}"), &format!("{p}AB{i}"), "VDD", "VSS"],
            x_dec - 2.0,
            y0 + i as f64 * 0.4,
        )?;
    }
    let line = |bit: usize, set: bool, pfx: &str| {
        if set {
            format!("{pfx}A{bit}")
        } else {
            format!("{pfx}AB{bit}")
        }
    };
    for r in 0..rows {
        // Three predecode inputs chosen from the row index bits (wrap when
        // fewer than 3 address bits exist).
        let i0 = 0;
        let i1 = 1 % abits;
        let i2 = 2 % abits;
        let n0 = line(i0, r & 1 != 0, p);
        let n1 = line(i1, (r >> 1) & 1 != 0, p);
        let n2 = line(i2, (r >> 2) & 1 != 0, p);
        let decb = format!("{p}decb{r}");
        let y = y0 + r as f64 * CELL_H;
        b.instance(
            &format!("X{p}dec{r}"),
            "NAND3",
            &[&n0, &n1, &n2, &decb, "VDD", "VSS"],
            x_dec - 1.2,
            y,
        )?;
        b.instance(
            &format!("X{p}wld{r}"),
            "WLDRV",
            &[&decb, &format!("{wl_prefix}WL{r}"), "VDD", "VSS"],
            x_dec - 0.5,
            y,
        )?;
    }
    Ok(())
}

/// Binary clock-buffer tree distributing `root` to `leaves` sink nets.
pub fn clock_tree(
    b: &mut DesignBuilder,
    p: &str,
    root: &str,
    leaves: &[String],
    x0: f64,
    y0: f64,
) -> Result<(), BuildDesignError> {
    // Level 1: one buffer per 8 leaves; root buffer feeds them.
    let n_l1 = leaves.len().div_ceil(8).max(1);
    let rootbuf = format!("{p}ckroot");
    b.instance(
        &format!("X{p}ckr"),
        "BUF",
        &[root, &rootbuf, "VDD", "VSS"],
        x0,
        y0,
    )?;
    for i in 0..n_l1 {
        let mid = format!("{p}ckm{i}");
        b.instance(
            &format!("X{p}ckb{i}"),
            "BUF",
            &[&rootbuf, &mid, "VDD", "VSS"],
            x0 + 1.0,
            y0 + i as f64 * 2.0,
        )?;
        for (j, leaf) in leaves.iter().skip(i * 8).take(8).enumerate() {
            b.instance(
                &format!("X{p}ckl{i}_{j}"),
                "BUF",
                &[&mid, leaf, "VDD", "VSS"],
                x0 + 2.0,
                y0 + i as f64 * 2.0 + j as f64 * 0.25,
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_and_periphery_compose() {
        let mut b = DesignBuilder::new("T");
        b.port("CLK");
        bitcell_array_6t(&mut b, "m_", 4, 8, 0.0, 0.0).unwrap();
        column_periphery(&mut b, "m_", 8, 0.0, 4.0 * CELL_H).unwrap();
        row_decoder(&mut b, "m_", 4, "m_", 0.0, 0.0).unwrap();
        let d = b.finish().unwrap();
        // 32 bitcells × 6 = 192 devices plus periphery.
        assert!(d.netlist.num_devices() > 192);
        assert!(d.netlist.net_id("m_BL3").is_some());
        assert!(d.netlist.net_id("m_WL3").is_some());
        assert!(d.netlist.net_id("m_SA1").is_some());
    }

    #[test]
    fn clock_tree_reaches_all_leaves() {
        let mut b = DesignBuilder::new("T");
        b.port("CK");
        let leaves: Vec<String> = (0..20).map(|i| format!("ck_leaf{i}")).collect();
        clock_tree(&mut b, "t_", "CK", &leaves, 0.0, 0.0).unwrap();
        let d = b.finish().unwrap();
        for leaf in &leaves {
            assert!(d.netlist.net_id(leaf).is_some(), "missing {leaf}");
        }
    }
}
