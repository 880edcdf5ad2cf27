'''The Turbine runtime library, written in Tcl.

Real Turbine ships a set of ``.tcl`` library files that the generated
program loads; the C core provides the primitive commands (rule, store,
retrieve, ...) and the library builds Swift's builtins on top.  This is
our equivalent: the primitive commands are registered from Python by
:mod:`repro.turbine.builtins`, and this prelude defines the derived
procs that STC-generated code calls.
'''

TURBINE_TCL = r'''
namespace eval turbine {}

# ---- value procs and the one rule shim ----------------------------------
# Every pure stdlib op is a *value proc*: values in, value out, the
# result normalised by turbine::norm to what a store_<type> followed by
# a retrieve would give back.  STC calls a value proc directly where
# its inputs are closed (in the spawning unit, or fused into a leaf
# task on a worker); where an input is still a future it goes through
# turbine::op, so every level computes with the same code.

# op: once all input TDs are closed, retrieve them, apply the value
# proc (a command prefix) and store the result into o as a <type> TD
# ("none": a sink such as trace, nothing to store).
proc turbine::op { type o fn args } {
    turbine::rule $args [ list turbine::op_body $type $o $fn {*}$args ] LOCAL
}
proc turbine::op_body { type o fn args } {
    set vals [ list ]
    foreach td $args { lappend vals [ turbine::retrieve $td ] }
    set v [ {*}$fn {*}$vals ]
    if { $type ne "none" } { turbine::store_$type $o $v }
}

# arithmetic, comparison, logic
proc turbine::binop_integer { oper x y } {
    turbine::norm integer [ expr "\$x $oper \$y" ]
}
proc turbine::binop_float { oper x y } {
    turbine::norm float [ expr "double(\$x) $oper double(\$y)" ]
}
proc turbine::binop_compare { oper x y } {
    turbine::norm boolean [ expr "{$x} $oper {$y}" ]
}
proc turbine::binop_logic { oper x y } {
    turbine::norm boolean [ expr "\$x $oper \$y" ]
}
proc turbine::neg_integer { x } { turbine::norm integer [ expr {- $x} ] }
proc turbine::neg_float { x } { turbine::norm float [ expr {- double($x)} ] }
proc turbine::not { x } { turbine::norm boolean [ expr {! $x} ] }

# conversions and float math
proc turbine::toint { x } { turbine::norm integer [ expr {int($x)} ] }
proc turbine::tofloat { x } { turbine::norm float $x }
proc turbine::fromint { x } { return $x }
proc turbine::fromfloat { x } { return $x }
proc turbine::parseint { x } { turbine::norm integer [ expr {int($x)} ] }
proc turbine::strlen { x } { string length $x }
proc turbine::mathfn { fn x } {
    turbine::norm float [ expr "$fn\(double(\$x))" ]
}

# strings
proc turbine::strcat { args } { join $args "" }
proc turbine::sprintf { fmt args } { format $fmt {*}$args }
proc turbine::substring { s start len } {
    string range $s $start [ expr { $start + $len - 1 } ]
}
proc turbine::find { hay needle } { string first $needle $hay }
proc turbine::replace_all { s from to } { string map [ list $from $to ] $s }
proc turbine::toupper { s } { string toupper $s }
proc turbine::tolower { s } { string tolower $s }
proc turbine::trim { s } { string trim $s }

# output sinks
proc turbine::printf { fmt args } {
    turbine::log_output [ format $fmt {*}$args ]
}
proc turbine::trace { args } {
    if { [ llength $args ] == 0 } { turbine::log_output "trace:" ; return }
    turbine::log_output "trace: [ join $args , ]"
}
proc turbine::assert { cond msg } {
    if { ! $cond } { error "Swift assertion failed: $msg" }
}

# program arguments: values live in the ::swift_argv dict, installed by
# the runtime on every engine and worker rank.
proc turbine::argv { kind key args } {
    global swift_argv
    if { [ info exists swift_argv ] && [ dict exists $swift_argv $key ] } {
        set val [ dict get $swift_argv $key ]
    } elseif { [ llength $args ] == 1 } {
        set val [ lindex $args 0 ]
    } else {
        error "missing program argument --$key (and no default given)"
    }
    if { $kind eq "int" } { return [ turbine::norm integer [ expr { int($val) } ] ] }
    return $val
}

# ---- dereferencing -------------------------------------------------------
# copy_td: once src is closed, copy its value into dst.
proc turbine::copy_td { dst src } {
    turbine::rule [ list $src ] \
        [ list turbine::copy_td_body $dst $src ] LOCAL
}
proc turbine::copy_td_body { dst src } {
    turbine::copy_value $dst $src
}

# deref_store: r holds a *reference* (a TD id).  Once r is closed, wait
# for the referenced TD, then copy its value into dst.
proc turbine::deref_store { dst r } {
    turbine::rule [ list $r ] \
        [ list turbine::deref_store_body $dst $r ] LOCAL
}
proc turbine::deref_store_body { dst r } {
    set m [ turbine::retrieve $r ]
    turbine::copy_td $dst $m
}

# ---- container helpers -------------------------------------------------------
# size(a): store the number of members once the container closes.
proc turbine::container_size_rule { o c } {
    turbine::rule [ list $c ] \
        [ list turbine::container_size_body $o $c ] LOCAL
}
proc turbine::container_size_body { o c } {
    turbine::store_integer $o [ llength [ turbine::enumerate $c ] ]
}

# reduce(a): once the container closes, wait on all member TDs, then fold.
proc turbine::container_reduce_rule { kind o c } {
    turbine::rule [ list $c ] \
        [ list turbine::container_reduce_members $kind $o $c ] LOCAL
}
proc turbine::container_reduce_members { kind o c } {
    set members [ list ]
    foreach sub [ turbine::enumerate $c ] {
        lappend members [ turbine::container_lookup $c $sub ]
    }
    if { [ llength $members ] == 0 } {
        turbine::container_reduce_store $kind $o
        return
    }
    turbine::rule $members \
        [ concat turbine::container_reduce_store $kind $o $members ] LOCAL
}
proc turbine::container_reduce_store { kind o args } {
    set vals [ list ]
    foreach td $args { lappend vals [ turbine::retrieve $td ] }
    switch $kind {
        sum_integer {
            set acc 0
            foreach v $vals { incr acc $v }
            turbine::store_integer $o $acc
        }
        sum_float {
            set acc 0.0
            foreach v $vals { set acc [ expr {$acc + $v} ] }
            turbine::store_float $o $acc
        }
        max_integer {
            set acc [ lindex $vals 0 ]
            foreach v $vals { if { $v > $acc } { set acc $v } }
            turbine::store_integer $o $acc
        }
        min_integer {
            set acc [ lindex $vals 0 ]
            foreach v $vals { if { $v < $acc } { set acc $v } }
            turbine::store_integer $o $acc
        }
        max_float {
            set acc [ lindex $vals 0 ]
            foreach v $vals { if { $v > $acc } { set acc $v } }
            turbine::store_float $o $acc
        }
        min_float {
            set acc [ lindex $vals 0 ]
            foreach v $vals { if { $v < $acc } { set acc $v } }
            turbine::store_float $o $acc
        }
        default { error "unknown reduction $kind" }
    }
}

# ---- deferred container ops ---------------------------------------------------
# insert_when_ready: the subscript is itself a future; insert once known.
proc turbine::insert_when_ready { c idx member } {
    turbine::rule [ list $idx ] \
        [ list turbine::insert_when_ready_body $c $idx $member ] LOCAL
}
proc turbine::insert_when_ready_body { c idx member } {
    turbine::container_insert $c [ turbine::retrieve $idx ] $member 1
}

# cref_when_ready: container_reference with a future subscript.
proc turbine::cref_when_ready { c idx ref } {
    turbine::rule [ list $idx ] \
        [ list turbine::cref_when_ready_body $c $idx $ref ] LOCAL
}
proc turbine::cref_when_ready_body { c idx ref } {
    turbine::container_reference $c [ turbine::retrieve $idx ] $ref
}

# ---- blob builtins (run on workers, where blobutils lives) ----------------------
proc turbine::blob_from_string_rule { o s } {
    turbine::rule [ list $s ] \
        [ list turbine::blob_from_string_body $o $s ] WORK
}
proc turbine::blob_from_string_body { o s } {
    set h [ blobutils::from_string [ turbine::retrieve $s ] ]
    turbine::store_blob $o $h
    blobutils::free $h
}
proc turbine::string_from_blob_rule { o b } {
    turbine::rule [ list $b ] \
        [ list turbine::string_from_blob_body $o $b ] WORK
}
proc turbine::string_from_blob_body { o b } {
    set h [ turbine::retrieve $b ]
    turbine::store_string $o [ blobutils::to_string $h ]
    blobutils::free $h
}
proc turbine::blob_size_rule { o b } {
    turbine::rule [ list $b ] [ list turbine::blob_size_body $o $b ] WORK
}
proc turbine::blob_size_body { o b } {
    set h [ turbine::retrieve $b ]
    turbine::store_integer $o [ blobutils::size $h ]
    blobutils::free $h
}

# ---- string <-> array builtins ----------------------------------------------
# split(s, sep) -> string[]: fills the output container, consuming the
# single writer slot the call statement holds.
proc turbine::split_rule { c s sep } {
    turbine::rule [ list $s $sep ] \
        [ list turbine::split_body $c $s $sep ] LOCAL
}
proc turbine::split_body { c s sep } {
    set parts [ split [ turbine::retrieve $s ] [ turbine::retrieve $sep ] ]
    set n [ llength $parts ]
    turbine::write_refcount_incr $c $n
    set i 0
    foreach part $parts {
        set m [ turbine::allocate string ]
        turbine::store_string $m $part
        turbine::container_insert $c $i $m 1
        incr i
    }
    turbine::write_refcount_decr $c 1
}

# join(a, sep) -> string: waits for the container, then all members,
# then joins in integer-subscript order.
proc turbine::join_rule { o c sep } {
    turbine::rule [ list $c $sep ] \
        [ list turbine::join_members $o $c $sep ] LOCAL
}
proc turbine::join_members { o c sep } {
    set subs [ lsort -integer [ turbine::enumerate $c ] ]
    set members [ list ]
    foreach sub $subs {
        lappend members [ turbine::container_lookup $c $sub ]
    }
    if { [ llength $members ] == 0 } {
        turbine::store_string $o ""
        return
    }
    turbine::rule $members \
        [ concat turbine::join_store $o $sep $members ] LOCAL
}
proc turbine::join_store { o sep args } {
    set vals [ list ]
    foreach td $args { lappend vals [ turbine::retrieve $td ] }
    turbine::store_string $o [ join $vals [ turbine::retrieve $sep ] ]
}
'''
